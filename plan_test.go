package hypertree

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// countingDecomposer wraps a Decomposer and counts Decompose calls — the
// observable proof that Compile searches once and Execute never searches.
type countingDecomposer struct {
	inner Decomposer
	calls atomic.Int32
}

func (c *countingDecomposer) Name() string { return "counting-" + c.inner.Name() }

func (c *countingDecomposer) Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error) {
	c.calls.Add(1)
	return c.inner.Decompose(ctx, h, req)
}

// The acceptance property of the compile-once API: one Compile performs
// exactly one decomposition search, and the plan then executes against any
// number of databases without searching again (Theorem 4.7).
func TestCompileOnceExecuteMany(t *testing.T) {
	q := MustParseQuery(`ans(X) :- r(X,Y), s(Y,Z), t(Z,X).`)
	cd := &countingDecomposer{inner: KDecomposer()}
	plan, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(cd))
	if err != nil {
		t.Fatal(err)
	}
	if got := cd.calls.Load(); got != 1 {
		t.Fatalf("Compile ran %d decomposition searches, want 1", got)
	}

	db1 := NewDatabase()
	db1.ParseFacts(`r(a,b). s(b,c). t(c,a).`)
	db2 := NewDatabase()
	db2.ParseFacts(`r(a,b). s(b,c). t(c,zzz).`)

	ctx := context.Background()
	t1, err := plan.Execute(ctx, db1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Rows() != 1 {
		t.Fatalf("db1: %d answers, want 1", t1.Rows())
	}
	t2, err := plan.Execute(ctx, db2)
	if err != nil {
		t.Fatal(err)
	}
	if !t2.Empty() {
		t.Fatalf("db2: open triangle should have no answers")
	}
	if got := cd.calls.Load(); got != 1 {
		t.Fatalf("after two Executes: %d decomposition searches, want exactly 1", got)
	}
}

// A cancelled context stops Compile with ctx.Err(): both when cancelled
// up-front and when the deadline expires mid-search (clique(9) needs ~seconds
// sequentially, so an expired 30ms budget proves the search itself aborted).
func TestCompileCancelled(t *testing.T) {
	q := MustParseQuery(gen.Q5Src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Compile: err = %v, want context.Canceled", err)
	}

	hard := gen.CliqueBinary(9)
	for _, tc := range []struct {
		name string
		opts []CompileOption
	}{
		{"sequential", nil},
		{"parallel", []CompileOption{WithWorkers(4)}},
		{"querydecomp", []CompileOption{WithDecomposer(QueryDecomposer())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			opts := append([]CompileOption{WithStrategy(StrategyHypertree)}, tc.opts...)
			start := time.Now()
			_, err := CompileContext(ctx, hard, opts...)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("search ignored the deadline: aborted only after %v", elapsed)
			}
		})
	}
}

// A cancelled context stops Execute and ExecuteBoolean with ctx.Err().
func TestExecuteCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := gen.Cycle(6)
	db := gen.RandomDatabase(rng, q, 200, 32)
	for _, s := range []Strategy{StrategyNaive, StrategyHypertree} {
		plan, err := Compile(q, WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := plan.Execute(ctx, db); !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %d Execute: err = %v, want context.Canceled", s, err)
		}
		if _, err := plan.ExecuteBoolean(ctx, db); !errors.Is(err, context.Canceled) {
			t.Fatalf("strategy %d ExecuteBoolean: err = %v, want context.Canceled", s, err)
		}
	}
	// acyclic strategy, including the workers>1 node-table path
	qa := gen.Q2()
	dba := gen.RandomDatabase(rng, qa, 100, 16)
	for _, workers := range []int{1, 4} {
		plan, err := Compile(qa, WithStrategy(StrategyAcyclic), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := plan.ExecuteBoolean(ctx, dba); !errors.Is(err, context.Canceled) {
			t.Fatalf("acyclic workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestCompileTypedErrors(t *testing.T) {
	q := MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X).`)
	if _, err := Compile(q, WithMaxWidth(0)); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("WithMaxWidth(0): err = %v, want ErrInvalidWidth", err)
	}
	if _, err := Compile(q, WithStepBudget(0)); err == nil {
		t.Fatal("WithStepBudget(0) accepted")
	}
	// the triangle is cyclic: hw = 2 > 1
	if _, err := Compile(q, WithStrategy(StrategyHypertree), WithMaxWidth(1)); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("WithMaxWidth(1): err = %v, want ErrWidthExceeded", err)
	}
	if _, err := Compile(q, WithStrategy(StrategyAcyclic)); !errors.Is(err, ErrCyclic) {
		t.Fatalf("acyclic on cyclic: err = %v, want ErrCyclic", err)
	}
	// a 1-step budget cannot finish any real search, sequential or QD
	if _, err := Compile(gen.Grid(3, 3), WithStrategy(StrategyHypertree), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("step budget (k-decomp): err = %v, want ErrStepBudget", err)
	}
	if _, err := Compile(gen.Grid(3, 3), WithStrategy(StrategyHypertree),
		WithDecomposer(QueryDecomposer()), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("step budget (query-decomp): err = %v, want ErrStepBudget", err)
	}
	// the parallel decomposer enforces the budget as a cross-worker total
	if _, err := Compile(gen.Grid(3, 3), WithStrategy(StrategyHypertree),
		WithWorkers(4), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("step budget (parallel): err = %v, want ErrStepBudget", err)
	}
}

// Strategy equivalence as a property test: on random instances the Naive,
// Acyclic and Hypertree plans — and the QueryDecomposer-backed hypertree
// plan — return identical answer tables.
func TestPropertyPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		q := gen.RandomQuery(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(20), 2+rng.Intn(5))

		plans := map[string]*Plan{}
		var err error
		if plans["naive"], err = Compile(q, WithStrategy(StrategyNaive)); err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		if plans["hd"], err = Compile(q, WithStrategy(StrategyHypertree)); err != nil {
			t.Fatalf("trial %d hd: %v", trial, err)
		}
		if plans["qd"], err = Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(QueryDecomposer())); err != nil {
			t.Fatalf("trial %d qd: %v", trial, err)
		}
		if plans["parallel"], err = Compile(q, WithStrategy(StrategyHypertree), WithWorkers(3)); err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if IsAcyclic(q) {
			if plans["acyclic"], err = Compile(q, WithStrategy(StrategyAcyclic)); err != nil {
				t.Fatalf("trial %d acyclic: %v", trial, err)
			}
		}

		ref, err := plans["naive"].Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d naive execute: %v", trial, err)
		}
		refBool, err := plans["naive"].ExecuteBoolean(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, p := range plans {
			tab, err := p.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			if !tab.Equal(ref) {
				t.Fatalf("trial %d: %s table disagrees with naive on %s", trial, name, q)
			}
			ok, err := p.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s boolean: %v", trial, name, err)
			}
			if ok != refBool {
				t.Fatalf("trial %d: %s boolean disagrees on %s", trial, name, q)
			}
		}
	}
}

// Projection must agree too.
func TestPropertyPlansAgreeWithHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		base := gen.RandomQuery(rng, 3+rng.Intn(3), 2+rng.Intn(3), 2)
		v := base.VarName(rng.Intn(base.NumVars()))
		q := MustParseQuery(`ans(` + v + `) :- ` + stripHead(base.String()))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 3)

		naive, err := Compile(q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hd, err := Compile(q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tn, err := naive.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		th, err := hd.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !tn.Equal(th) {
			t.Fatalf("trial %d: projections disagree on %s", trial, q)
		}
	}
}

// A plan is safe for concurrent Execute against different databases.
func TestPlanConcurrentExecute(t *testing.T) {
	q := gen.Cycle(5)
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	dbs := make([]*Database, 8)
	want := make([]bool, len(dbs))
	for i := range dbs {
		dbs[i] = gen.RandomDatabase(rand.New(rand.NewSource(int64(i))), q, 30+rng.Intn(40), 8)
		ok, err := plan.ExecuteBoolean(context.Background(), dbs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ok
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, db := range dbs {
				ok, err := plan.ExecuteBoolean(context.Background(), db)
				if err != nil {
					errs <- err
					return
				}
				if ok != want[i] {
					errs <- errors.New("concurrent execution returned a different answer")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The plan cache compiles once per canonical form: an α-renamed query is a
// hit (variable IDs line up positionally, so the cached plan's answer
// tables are correct for the caller); a re-ordered query interns variables
// differently and must miss; different options miss; LRU eviction bounds
// the size.
func TestPlanCache(t *testing.T) {
	cache := NewPlanCache(4)
	ctx := context.Background()
	cd := &countingDecomposer{inner: KDecomposer()}
	opts := []CompileOption{WithStrategy(StrategyHypertree), WithDecomposer(cd)}

	q1 := MustParseQuery(`ans(X) :- r(X,Y), s(Y,Z), t(Z,X).`)
	q2 := MustParseQuery(`ans(A) :- r(A,B), s(B,C), t(C,A).`) // α-renamed, same order
	p1, err := cache.Compile(ctx, q1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.Compile(ctx, q2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("α-renamed query missed the cache")
	}
	if got := cd.calls.Load(); got != 1 {
		t.Fatalf("%d searches for two equivalent compiles, want 1", got)
	}
	if m := cache.Metrics(); m.Hits != 1 || m.Misses != 1 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss", m)
	}

	// The cached plan answers in the caller's own variable IDs: q2's answer
	// column must be its head variable A, not a stale ID from q1.
	db := NewDatabase()
	db.ParseFacts(`r(a,b). s(b,c). t(c,a).`)
	tab, err := p2.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Vars) != 1 || q2.VarName(tab.Vars[0]) != "A" {
		t.Fatalf("cached plan answered over variable %q, want A", q2.VarName(tab.Vars[0]))
	}

	// Re-ordered atoms intern variables differently → must compile anew.
	q3 := MustParseQuery(`ans(A) :- s(B,C), t(C,A), r(A,B).`)
	p3, err := cache.Compile(ctx, q3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("re-ordered query must not share a cached plan")
	}
	if got := cd.calls.Load(); got != 2 {
		t.Fatalf("%d searches after re-ordered compile, want 2", got)
	}
	tab3, err := p3.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab3.Vars) != 1 || q3.VarName(tab3.Vars[0]) != "A" {
		t.Fatalf("re-ordered plan answered over variable %q, want A", q3.VarName(tab3.Vars[0]))
	}

	// different options → different plan
	if _, err := cache.Compile(ctx, q1, WithStrategy(StrategyNaive)); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache len = %d, want 3", cache.Len())
	}
	// eviction at capacity 4
	if _, err := cache.Compile(ctx, gen.Q2()); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Compile(ctx, gen.Q4()); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 4 {
		t.Fatalf("after eviction len = %d, want 4", cache.Len())
	}
	cache.Purge()
	if cache.Len() != 0 {
		t.Fatalf("purged cache len = %d", cache.Len())
	}
}

// Plans built by every bundled Decomposer validate and report their width.
func TestDecomposersProduceValidPlans(t *testing.T) {
	q := MustParseQuery(gen.Q5Src)
	for _, d := range []Decomposer{KDecomposer(), QueryDecomposer()} {
		plan, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(d))
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if err := ValidateHD(plan.Decomposition()); err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if plan.DecomposerName() != d.Name() {
			t.Fatalf("DecomposerName = %q, want %q", plan.DecomposerName(), d.Name())
		}
		// hw(Q5) = 2; the QD search may use more nodes but the k-decomp ones
		// must be optimal.
		if d.Name() != "query-decomp" && plan.Width() != 2 {
			t.Fatalf("%s: width = %d, want 2", d.Name(), plan.Width())
		}
	}
}

// Ground-only and Boolean edge cases run through plans.
func TestPlanGroundOnly(t *testing.T) {
	db := NewDatabase()
	db.AddFact("flag")
	ctx := context.Background()
	for _, s := range []Strategy{StrategyAuto, StrategyAcyclic, StrategyHypertree, StrategyNaive} {
		plan, err := Compile(MustParseQuery(`flag()`), WithStrategy(s))
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		ok, err := plan.ExecuteBoolean(ctx, db)
		if err != nil || !ok {
			t.Fatalf("strategy %d: flag() holds: %v %v", s, ok, err)
		}
		tab, err := plan.Execute(ctx, db)
		if err != nil || tab.Empty() {
			t.Fatalf("strategy %d: Execute: %v %v", s, tab, err)
		}
	}
	plan, err := Compile(MustParseQuery(`noflag()`))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := plan.ExecuteBoolean(ctx, db)
	if err != nil || ok {
		t.Fatalf("noflag() should be false: %v %v", ok, err)
	}
}
