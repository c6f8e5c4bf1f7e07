package hdeval

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/relation"
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
		e, err := NewEvaluator(q, hd, nil)
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
	if !want.Enc.Table().Equal(got.Enc.Table()) {
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

// A bag whose χ drops columns of its pivot relation can receive the same
// χ-row from two shards; the merged node table must still be a set, equal to
// the single-database one.
func TestRootShardedDistinctWhenChiDropsPivotColumns(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse(`ans(X, Z) :- r(X,Y), s(Y,Z), t(Z,X).`)
	h, _ := q.Hypergraph()
	v := func(name string) int { i, _ := q.VarIndex(name); return i }
	// A legal, if redundant, decomposition: the child joins r and s again
	// and projects the join variable Y away.
	hd := &decomp.Decomposition{H: h, Root: &decomp.Node{
		Chi:    bitset.Of(v("X"), v("Y"), v("Z")),
		Lambda: bitset.Of(0, 1),
		Children: []*decomp.Node{{
			Chi:    bitset.Of(v("X"), v("Z")),
			Lambda: bitset.Of(0, 1),
		}},
	}}
	if err := hd.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(q, hd, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Few X and Z values over many Y values: every (X,Z) pair has witnesses
	// in several shards.
	db := relation.NewDatabase()
	for y := 0; y < 40; y++ {
		db.AddFact("r", val(y%3), val(3+y))
		db.AddFact("s", val(3+y), val(y%2))
	}
	db.AddFact("t", val(0), val(0))
	want, err := e.Root(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 7} {
		p, err := shard.Partition(db, n, shard.Hash)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.RootSharded(ctx, p, 0)
		if err != nil {
			t.Fatal(err)
		}
		compareTrees(t, want, got)
		child := got.Children[0].Enc
		if child.Rows() != 6 || child.Distinct() != child {
			t.Fatalf("%d shards: π_{X,Z}(r ⋈ s) has %d rows, want the 6 distinct pairs", n, child.Rows())
		}
		gotAns, err := materialize(e.AnswersSharded(ctx, p, 0))
		if err != nil {
			t.Fatal(err)
		}
		wantAns, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !gotAns.Equal(wantAns) {
			t.Fatalf("%d shards: sharded answers disagree with the naive join", n)
		}
	}
}

// A malformed decomposition node (empty λ) never reaches either execution
// path: the evaluator is not built, even when the completion hangs every
// atom below the bad node.
func TestRootShardedEmptyLambdaError(t *testing.T) {
	q := gen.Q1()
	h, _ := q.Hypergraph()
	bad := &decomp.Decomposition{H: h, Root: &decomp.Node{}}
	if _, err := NewEvaluator(q, bad, nil); err == nil {
		t.Fatalf("an empty-λ root above a complete tree was accepted")
	}
}
