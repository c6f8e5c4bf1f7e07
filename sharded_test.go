package hypertree

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// partitionings returns pdb views of db at shard counts 1, 2 and 7, under
// both placement strategies.
func partitionings(t *testing.T, db *Database) map[string]*PartitionedDB {
	t.Helper()
	out := map[string]*PartitionedDB{}
	for _, s := range []PartitionStrategy{HashPartition, RoundRobinPartition} {
		for _, n := range []int{1, 2, 7} {
			p, err := PartitionDatabase(db, n, s)
			if err != nil {
				t.Fatal(err)
			}
			out[s.String()+"/"+string(rune('0'+n))] = p
		}
	}
	return out
}

// The cross-path property: ExecuteSharded ≡ Execute on random acyclic and
// cyclic queries, for the exact k-decomp, the greedy GHD and the
// fractional decomposers, across shard counts 1, 2 and 7 and both
// strategies — fhd plans evaluate over their integral support sets, so the
// sharded fragment-and-replicate path must serve them unchanged.
func TestPropertyShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	ctx := context.Background()
	acyclicSeen, cyclicSeen := 0, 0
	for trial := 0; trial < 30; trial++ {
		var q *Query
		switch trial % 4 {
		case 0:
			q = gen.Cycle(3 + rng.Intn(5)) // cyclic
		case 1:
			q = gen.Path(2 + rng.Intn(4)) // acyclic
		case 2:
			q = gen.RandomCSP(rng, 4+rng.Intn(3), 7+rng.Intn(4), 3) // cyclic
		default:
			q = gen.RandomQuery(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
		}
		if IsAcyclic(q) {
			acyclicSeen++
		} else {
			cyclicSeen++
		}
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(25), 2+rng.Intn(5))

		for name, opt := range map[string]CompileOption{
			"k-decomp": WithDecomposer(KDecomposer()),
			"ghd":      WithDecomposer(GreedyDecomposer()),
			"fhd":      WithDecomposer(FractionalDecomposer()),
		} {
			plan, err := Compile(q, WithStrategy(StrategyHypertree), opt)
			if err != nil {
				t.Fatalf("trial %d %s compile: %v", trial, name, err)
			}
			want, err := plan.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			wantBool, err := plan.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			for pname, pdb := range partitionings(t, db) {
				got, err := plan.ExecuteSharded(ctx, pdb)
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, name, pname, err)
				}
				if !got.Equal(want) {
					t.Fatalf("trial %d: %s sharded(%s) table disagrees on %s", trial, name, pname, q)
				}
				if got.StringWith(db, q.VarName) != want.StringWith(db, q.VarName) {
					t.Fatalf("trial %d: %s sharded(%s) rendering disagrees on %s", trial, name, pname, q)
				}
				okS, err := plan.ExecuteBooleanSharded(ctx, pdb)
				if err != nil {
					t.Fatalf("trial %d %s %s boolean: %v", trial, name, pname, err)
				}
				if okS != wantBool {
					t.Fatalf("trial %d: %s sharded(%s) boolean disagrees on %s", trial, name, pname, q)
				}
			}
		}
	}
	if acyclicSeen == 0 || cyclicSeen == 0 {
		t.Fatalf("trial mix degenerate: %d acyclic, %d cyclic", acyclicSeen, cyclicSeen)
	}
}

// Head projections must survive sharding too.
func TestPropertyShardedEquivalenceWithHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	for trial := 0; trial < 15; trial++ {
		base := gen.RandomQuery(rng, 3+rng.Intn(3), 2+rng.Intn(3), 2)
		v := base.VarName(rng.Intn(base.NumVars()))
		q := MustParseQuery(`ans(` + v + `) :- ` + stripHead(base.String()))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 3)
		opt := WithDecomposer(GreedyDecomposer())
		if trial%2 == 1 {
			opt = WithDecomposer(FractionalDecomposer())
		}
		plan, err := Compile(q, WithStrategy(StrategyHypertree), opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := plan.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pdb, err := PartitionDatabase(db, 3, HashPartition)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ExecuteSharded(ctx, pdb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: sharded head projection disagrees on %s", trial, q)
		}
	}
}

// A shard left empty by partitioning more ways than there are tuples must
// not disturb answers.
func TestShardedEmptyShard(t *testing.T) {
	ctx := context.Background()
	q := MustParseQuery(`ans(X, Z) :- r(X, Y), s(Y, Z).`)
	db := NewDatabase()
	if err := db.ParseFacts(`r(a,b). r(c,b). s(b,d).`); err != nil {
		t.Fatal(err)
	}
	pdb, err := PartitionDatabase(db, 7, RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	empties := 0
	for i := 0; i < pdb.NumShards(); i++ {
		if pdb.Shard(i).Relation("r").Rows()+pdb.Shard(i).Relation("s").Rows() == 0 {
			empties++
		}
	}
	if empties == 0 {
		t.Fatalf("expected at least one empty shard with 3 tuples over 7 shards")
	}
	plan, err := Compile(q, WithStrategy(StrategyHypertree))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.ExecuteSharded(ctx, pdb)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || got.Rows() != 2 {
		t.Fatalf("empty shard broke answers: %d rows, want %d", got.Rows(), want.Rows())
	}
}

// Naive- and acyclic-strategy plans route sharded execution through the
// assembled view; answers must still match.
func TestShardedNonHypertreeStrategies(t *testing.T) {
	ctx := context.Background()
	q := MustParseQuery(`ans(X) :- r(X, Y), s(Y, Z).`)
	db := NewDatabase()
	if err := db.ParseFacts(`r(a,b). s(b,c). s(b,d).`); err != nil {
		t.Fatal(err)
	}
	pdb, err := PartitionDatabase(db, 3, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{StrategyNaive, StrategyAcyclic} {
		plan, err := Compile(q, WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.Execute(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.ExecuteSharded(ctx, pdb)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("strategy %d: sharded answers differ", s)
		}
	}
}

// A context cancelled mid-scatter must surface promptly as ctx.Err().
func TestShardedCancellation(t *testing.T) {
	q := gen.Cycle(8)
	rng := rand.New(rand.NewSource(11))
	db := gen.RandomDatabase(rng, q, 8000, 40)
	pdb, err := PartitionDatabase(db, 8, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, WithStrategy(StrategyHypertree), WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}

	// already-cancelled context: nothing runs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteSharded(ctx, pdb); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context not observed: %v", err)
	}

	// cancel while the scatter is in flight
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := plan.ExecuteSharded(ctx2, pdb)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	cancel2()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
		if err == nil {
			t.Logf("execution finished before the cancel landed (fast machine)")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("sharded execution ignored cancellation")
	}
}

// Race-stress for the serving regime: many goroutines run ExecuteSharded
// over one shared plan and one shared PartitionedDB, a mixer cancels half
// of them mid-flight, and afterwards the goroutine count must return to
// baseline — cancelled scatters whose shard calls were queued behind other
// callers' work must abandon the queue, not leak (see shard.Scatter).
func TestShardedConcurrentCancelNoLeak(t *testing.T) {
	q := gen.Cycle(6)
	db := gen.RandomDatabase(rand.New(rand.NewSource(17)), q, 400, 25)
	pdb, err := PartitionDatabase(db, 4, HashPartition)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(q, WithStrategy(StrategyHypertree), WithShardWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.ExecuteBoolean(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%2 == 0 {
					// cancel mid-flight, racing the execution
					go func() {
						time.Sleep(time.Duration(i%3) * time.Millisecond)
						cancel()
					}()
				}
				got, err := plan.ExecuteBooleanSharded(ctx, pdb)
				switch {
				case err == nil:
					if got != want {
						t.Errorf("sharded verdict %v, want %v", got, want)
					}
				case errors.Is(err, context.Canceled):
					// expected for the cancelled half
				default:
					t.Errorf("unexpected error: %v", err)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d alive, baseline %d", n, baseline)
	}
}
