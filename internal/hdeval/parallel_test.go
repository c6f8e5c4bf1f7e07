package hdeval

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/gen"
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
		seq, err := e.RootWorkers(ctx, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := e.RootWorkers(ctx, db, workers)
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
	if _, err := e.RootWorkers(ctx, db, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := e.Boolean(ctx, db, 4); !errors.Is(err, context.Canceled) {
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
	want, err := e.Boolean(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTab, err := e.Enumerate(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := e.Boolean(ctx, db, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: Boolean = %v, want %v", workers, got, want)
		}
		gotTab, err := e.Enumerate(ctx, db, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !gotTab.Equal(wantTab) {
			t.Fatalf("workers=%d: Enumerate differs", workers)
		}
	}
}
