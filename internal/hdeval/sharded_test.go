package hdeval

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/shard"
	"hypertree/internal/yannakakis"
)

// RootSharded must reproduce Root's node tables exactly, node by node, for
// every strategy and shard count — including shard counts exceeding the
// tuple count (empty fragments).
func TestRootShardedMatchesRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	for _, q := range []*cq.Query{gen.Q5(), gen.Cycle(5), gen.Grid(3, 3)} {
		h, _ := q.Hypergraph()
		_, hd, err := decomp.WidthContext(ctx, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEvaluator(q, hd)
		if err != nil {
			t.Fatal(err)
		}
		db := gen.RandomDatabase(rng, q, 60, 12)
		want, err := e.Root(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []shard.Strategy{shard.Hash, shard.RoundRobin} {
			for _, n := range []int{1, 3, 128} {
				p, err := shard.Partition(db, n, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.RootSharded(ctx, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				compareTrees(t, want, got)

				b1, err := e.BooleanSharded(ctx, p, 0)
				if err != nil {
					t.Fatal(err)
				}
				b2, err := e.Boolean(ctx, db, 1)
				if err != nil {
					t.Fatal(err)
				}
				if b1 != b2 {
					t.Fatalf("BooleanSharded(%s, n=%d) = %v, single = %v", s, n, b1, b2)
				}
			}
		}
	}
}

func compareTrees(t *testing.T, want, got *yannakakis.Node) {
	t.Helper()
	if !want.Materialize().Equal(got.Materialize()) {
		t.Fatalf("sharded node table disagrees: %d vs %d rows over %v/%v",
			want.Rows(), got.Rows(), want.Vars(), got.Vars())
	}
	if len(want.Children) != len(got.Children) {
		t.Fatalf("tree shape differs")
	}
	for i := range want.Children {
		compareTrees(t, want.Children[i], got.Children[i])
	}
}

// A malformed decomposition node (empty λ) must surface as an error from
// the sharded path, matching the single-database path — never a panic.
func TestRootShardedEmptyLambdaError(t *testing.T) {
	ctx := context.Background()
	q := gen.Q1()
	h, _ := q.Hypergraph()
	bad := &decomp.Decomposition{H: h, Root: &decomp.Node{}}
	e, err := NewEvaluator(q, bad)
	if err != nil {
		t.Fatal(err)
	}
	db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, 5, 4)
	if _, err := e.Root(ctx, db); err == nil {
		t.Fatalf("single path accepted an empty-λ node")
	}
	p, err := shard.Partition(db, 2, shard.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RootSharded(ctx, p, 0); err == nil {
		t.Fatalf("sharded path accepted an empty-λ node")
	}
}
