package hdeval

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
)

// compileHD returns the exact decomposition of q for evaluator tests.
func compileHD(t *testing.T, q *cq.Query) *decomp.Decomposition {
	t.Helper()
	h, _ := q.Hypergraph()
	_, d, err := decomp.WidthContext(context.Background(), h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// With a cost model NewEvaluator must order every physical node's children
// by estimated node size, without changing any produced table.
func TestEvaluatorStatsOrdering(t *testing.T) {
	q := cq.MustParse(`ans(X1, X3) :- r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1).`)
	d := compileHD(t, q)
	h, _ := q.Hypergraph()
	// price edge i at descending rows so the statistics order reverses the
	// input order
	rows := make([]float64, h.NumEdges())
	for i := range rows {
		rows[i] = float64(1000 * (len(rows) - i))
	}
	e, err := NewEvaluator(q, d, decomp.NewCostModel(h, rows, nil))
	if err != nil {
		t.Fatal(err)
	}
	nodes := e.Nodes()
	for _, n := range nodes {
		for i := 1; i < len(n.Children); i++ {
			if nodes[n.Children[i-1]].EstRows > nodes[n.Children[i]].EstRows {
				t.Fatalf("children not sorted by EstRows")
			}
		}
	}

	// equivalence against the statistics-free evaluator
	plainEval, err := NewEvaluator(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	db := gen.SkewedSizeDatabase(rng, q, 50, 5, 2)
	ctx := context.Background()
	want, err := materialize(answersOf(ctx, plainEval, db, 1, plainEval.head))
	if err != nil {
		t.Fatal(err)
	}
	got, err := materialize(answersOf(ctx, e, db, 1, e.head))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("statistics ordering changed answers: %d vs %d rows", got.Rows(), want.Rows())
	}
}
