package hdeval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// Parallel materialisation must produce node tables identical to the
// sequential build, across random queries and worker counts.
func TestRootWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		q := gen.RandomQuery(rng, 2+rng.Intn(5), 2+rng.Intn(5), 1+rng.Intn(3))
		h, _ := q.Hypergraph()
		if h.NumEdges() == 0 {
			continue
		}
		_, d := decomp.Width(h)
		e, err := NewEvaluator(q, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(25), 2+rng.Intn(6))
		ctx := context.Background()
		seq, err := e.Root(ctx, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := e.Root(ctx, db, workers)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !sameTree(seq, par) {
				t.Fatalf("trial %d workers=%d: node tables differ on %s", trial, workers, q)
			}
		}
	}
}

func sameTree(a, b *yannakakis.Node) bool {
	if !a.Enc.Table().Equal(b.Enc.Table()) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// The parallel build observes cancellation.
func TestRootWorkersCancelled(t *testing.T) {
	q := gen.Cycle(8)
	h, _ := q.Hypergraph()
	_, d := decomp.Width(h)
	e, err := NewEvaluator(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := gen.RandomDatabase(rand.New(rand.NewSource(3)), q, 50, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Root(ctx, db, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := decide(ctx, e, db, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("Boolean: err = %v, want context.Canceled", err)
	}
}

// Boolean and Enumerate answers are worker-count invariant end to end.
func TestParallelEvaluatorAgrees(t *testing.T) {
	q := gen.Cycle(6)
	h, _ := q.Hypergraph()
	_, d := decomp.Width(h)
	e, err := NewEvaluator(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := gen.RandomDatabase(rand.New(rand.NewSource(11)), q, 120, 24)
	ctx := context.Background()
	want, err := decide(ctx, e, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTab, err := materialize(answersOf(ctx, e, db, 1, e.head))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := decide(ctx, e, db, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: Boolean = %v, want %v", workers, got, want)
		}
		gotTab, err := materialize(answersOf(ctx, e, db, workers, e.head))
		if err != nil {
			t.Fatal(err)
		}
		if !gotTab.Equal(wantTab) {
			t.Fatalf("workers=%d: Enumerate differs", workers)
		}
	}
}

// A request deadline interrupts a leapfrog run in progress. The bag is a
// product under every variable order the kernel can choose: its λ edges
// r(X,V) and t(Z,V) share no χ variable (χ = {X,Z}), output variables
// always lead the order, and only at the last level — the existential V —
// does each of the |r|·|t| (X,Z) pairs find that nothing matches. So the
// full run visits 16 million keys and emits no row — it is still going when
// a 200 ms deadline expires. With a 5 ms deadline it must come back
// DeadlineExceeded within 50 ms, and the evaluator must answer the next
// request as if nothing happened.
func TestDeadlineInterruptsLeapfrog(t *testing.T) {
	q := cq.MustParse(`r(X,V), t(Z,V)`)
	h, _ := q.Hypergraph()
	x, _ := h.VertexIndex("X")
	z, _ := h.VertexIndex("Z")
	bag := &decomp.Decomposition{H: h, Root: &decomp.Node{Chi: bitset.Of(x, z), Lambda: bitset.Of(0, 1)}}
	e, err := NewEvaluator(q, bag, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	db := relation.NewDatabase()
	for i := 0; i < n; i++ {
		db.AddFact("r", fmt.Sprint("x", i), fmt.Sprint("p", i%50))
		db.AddFact("t", fmt.Sprint("z", i), fmt.Sprint("q", i%50))
	}
	for _, d := range []time.Duration{200 * time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		start := time.Now()
		_, err := decide(ctx, e, db, 1)
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v deadline: err = %v after %v, want DeadlineExceeded (the full run must outlast 200 ms)", d, err, took)
		}
		if took > d+45*time.Millisecond {
			t.Fatalf("%v deadline: the join came back after %v", d, took)
		}
	}
	// The parallel builder hands the node's join the same deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := decide(ctx, e, db, 4); !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 50*time.Millisecond {
		t.Fatalf("4 workers, 5 ms deadline: err = %v after %v, want DeadlineExceeded within 50 ms", err, time.Since(start))
	}
	small := relation.NewDatabase()
	if err := small.ParseFacts(`r(a, b). t(c, b).`); err != nil {
		t.Fatal(err)
	}
	if ok, err := decide(context.Background(), e, small, 1); err != nil || !ok {
		t.Fatalf("after the interrupted runs: %v, %v; want true, nil", ok, err)
	}
}
