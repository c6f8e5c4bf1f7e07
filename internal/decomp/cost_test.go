package decomp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

func costHypergraph() *hypergraph.Hypergraph {
	h := hypergraph.New()
	h.AddEdge("big", "X", "Y")
	h.AddEdge("mid", "Y", "Z")
	h.AddEdge("small", "Z", "X")
	return h
}

func TestNodeCostIntegralAndFractional(t *testing.T) {
	// no distinct counts: the estimate is the AGM bound
	h := costHypergraph()
	rows := NewCostModel(h, []float64{1000, 100, 10}, nil)
	n := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1)}
	if got := NodeCost(n, rows); got != 1000*100 {
		t.Errorf("integral NodeCost = %g, want 1e5", got)
	}
	// fractional weights exponentiate: the AGM reading
	n.Weights = map[int]float64{0: 0.5, 1: 0.5}
	want := math.Sqrt(1000) * math.Sqrt(100)
	if got := NodeCost(n, rows); math.Abs(got-want) > 1e-9 {
		t.Errorf("fractional NodeCost = %g, want %g", got, want)
	}
	// nil rows: every relation counts 1, cost collapses to 1
	if got := NodeCost(n, nil); got != 1 {
		t.Errorf("NodeCost without stats = %g, want 1", got)
	}
	// zero-row relations clamp to 1 instead of erasing the product
	n2 := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 2)}
	if got := NodeCost(n2, NewCostModel(h, []float64{0, 5, 7}, nil)); got != 7 {
		t.Errorf("clamped NodeCost = %g, want 7", got)
	}
}

func TestCostWith(t *testing.T) {
	h := costHypergraph()
	child := &Node{Chi: bitset.Of(0, 2), Lambda: bitset.Of(2)}
	root := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1), Children: []*Node{child}}
	d := &Decomposition{H: h, Root: root}
	rows := NewCostModel(h, []float64{1000, 100, 10}, nil)
	if got := d.CostWith(rows); got != 1000*100+10 {
		t.Errorf("CostWith = %g", got)
	}
}

// cycleHypergraph is r1(X1,X2), …, rn(Xn,X1): edge i holds vertices i and
// (i+1) mod n.
func cycleHypergraph(n int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i := 0; i < n; i++ {
		h.AddVertex(fmt.Sprintf("X%d", i+1))
	}
	for i := 0; i < n; i++ {
		h.AddEdge(fmt.Sprintf("r%d", i+1), fmt.Sprintf("X%d", i+1), fmt.Sprintf("X%d", (i+1)%n+1))
	}
	return h
}

// uniform is the model of the serving workloads: every relation r rows,
// every column d distinct values.
func uniform(h *hypergraph.Hypergraph, r, d float64) *CostModel {
	rows := make([]float64, h.NumEdges())
	for i := range rows {
		rows[i] = r
	}
	return NewCostModel(h, rows, func(e, v int) float64 { return d })
}

// The estimate tells a join from a product, prices projections, and a scan
// at its relation.
func TestNodeCostJoinVersusProduct(t *testing.T) {
	h := cycleHypergraph(4)
	m := uniform(h, 500, 200)
	for _, c := range []struct {
		name string
		n    *Node
		want float64
	}{
		{"scan", &Node{Chi: h.Edge(2).Clone(), Lambda: bitset.Of(2)}, 500},
		{"scan projected onto one column", &Node{Chi: bitset.Of(2), Lambda: bitset.Of(2)}, 200},
		{"join r1 ⋈ r2 on X2", &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1)}, 500 * 500 / 200},
		{"join r1 ⋈ r4 on X1", &Node{Chi: bitset.Of(0, 1, 3), Lambda: bitset.Of(0, 3)}, 500 * 500 / 200},
		{"product r1 × r3", &Node{Chi: bitset.Of(0, 1, 2, 3), Lambda: bitset.Of(0, 2)}, 500 * 500},
		{"product r1 × π_X3 r3", &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 2)}, 500 * 200},
		{"partial cover of a larger bag", &Node{Chi: bitset.Of(0, 1, 2, 3), Lambda: bitset.Of(0)}, 500},
	} {
		if got := NodeCost(c.n, m); got != c.want {
			t.Errorf("%s: NodeCost = %g, want %g", c.name, got, c.want)
		}
	}
	// a triangle bag at fractional weights ½: the three-way join estimate
	// r³/d³ undercuts r^1.5, and only the AGM bound knows the weights
	tri := cycleHypergraph(3)
	n := &Node{Chi: bitset.Of(0, 1, 2), Lambda: bitset.Of(0, 1, 2), Weights: map[int]float64{0: .5, 1: .5, 2: .5}}
	if got, want := NodeCost(n, uniform(tri, 500, 200)), 500.*500*500/(200*200*200); math.Abs(got-want) > 1e-9 {
		t.Errorf("triangle: NodeCost = %g, want %g", got, want)
	}
	if got, want := NodeCost(n, uniform(tri, 500, 2)), 8.; got != want { // Π_χ d caps it
		t.Errorf("triangle over a 2-value domain: NodeCost = %g, want %g", got, want)
	}
	if got, want := NodeCost(n, NewCostModel(tri, []float64{500, 500, 500}, nil)), math.Pow(500, 1.5); math.Abs(got-want) > 1e-6 {
		t.Errorf("triangle without distinct counts: NodeCost = %g, want the AGM bound %g", got, want)
	}
}

// Properties of the estimator over random nodes and random statistics:
// never above the AGM bound, never below 1, 1 under the nil model, the
// relation's rows for a scan of its full variable set, the product for
// pairwise disjoint λ edges, non-decreasing in the distinct count of a
// variable only one λ edge holds (a wider column widens the table), and
// non-increasing in a join variable's count once it is the largest and its
// edge's projection is capped by the rows (more join values, fewer matches
// each).
func TestNodeCostProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		h := hypergraph.New()
		nv, ne := 3+rng.Intn(5), 2+rng.Intn(5)
		for v := 0; v < nv; v++ {
			h.AddVertex(fmt.Sprintf("V%d", v))
		}
		for e := 0; e < ne; e++ {
			var vs bitset.Set
			for vs.Len() < 1+rng.Intn(3) {
				vs.Add(rng.Intn(nv))
			}
			h.AddEdgeSet(fmt.Sprintf("e%d", e), vs)
		}
		rows := make([]float64, ne)
		dist := make([][]float64, ne)
		for e := range rows {
			rows[e] = float64(1 + rng.Intn(10000))
			dist[e] = make([]float64, nv)
			for v := range dist[e] {
				dist[e][v] = float64(1 + rng.Intn(int(rows[e])))
			}
		}
		model := func() *CostModel {
			return NewCostModel(h, rows, func(e, v int) float64 { return dist[e][v] })
		}
		agm := NewCostModel(h, rows, nil)

		var lambda bitset.Set
		for lambda.Len() < 1+rng.Intn(3) {
			lambda.Add(rng.Intn(ne))
		}
		var chi bitset.Set
		h.Vars(lambda).ForEach(func(v int) {
			if rng.Intn(4) > 0 {
				chi.Add(v)
			}
		})
		n := &Node{Chi: chi, Lambda: lambda}
		got := NodeCost(n, model())
		if bound := NodeCost(n, agm); got > bound || got < 1 {
			t.Fatalf("trial %d: NodeCost %g outside [1, AGM bound %g]", trial, got, bound)
		}
		if NodeCost(n, nil) != 1 {
			t.Fatalf("trial %d: nil model must cost 1", trial)
		}

		// monotonicity in one distinct count of one λ edge
		e := lambda.Elems()[rng.Intn(lambda.Len())]
		vars := h.Edge(e).Intersect(chi).Elems()
		if len(vars) == 0 {
			continue
		}
		v := vars[rng.Intn(len(vars))]
		holders := 0
		lambda.ForEach(func(f int) {
			if h.Edge(f).Has(v) {
				holders++
			}
		})
		before := dist[e][v]
		if holders == 1 {
			dist[e][v] = before + float64(1+rng.Intn(100))
			if grown := NodeCost(n, model()); grown < got {
				t.Fatalf("trial %d: widening a private column shrank the estimate %g → %g", trial, got, grown)
			}
		} else {
			// make v's count in e the largest, and slack e's projection cap
			lambda.ForEach(func(f int) { before = max(before, dist[f][v]) })
			dist[e][v] = max(before, rows[e])
			at := NodeCost(n, model())
			dist[e][v] *= 2
			if grown := NodeCost(n, model()); grown > at {
				t.Fatalf("trial %d: more join values grew the estimate %g → %g", trial, at, grown)
			}
		}
	}

	// scans and products, with distinct counts a real relation could have
	// (Π of a relation's counts is at least its rows)
	for trial := 0; trial < 100; trial++ {
		h := hypergraph.New()
		h.AddEdge("r", "A", "B")
		h.AddEdge("s", "C", "D")
		h.AddEdge("t", "E")
		rows := []float64{float64(1 + rng.Intn(5000)), float64(1 + rng.Intn(5000)), float64(1 + rng.Intn(50))}
		m := NewCostModel(h, rows, func(e, v int) float64 {
			if e == 2 {
				return rows[2]
			}
			return math.Ceil(math.Sqrt(rows[e])) + float64(rng.Intn(10))
		})
		for e := 0; e < 3; e++ {
			if got := NodeCost(&Node{Chi: h.Edge(e).Clone(), Lambda: bitset.Of(e)}, m); got != rows[e] {
				t.Fatalf("scan of edge %d: NodeCost = %g, want its %g rows", e, got, rows[e])
			}
		}
		all := &Node{Chi: h.AllVertices(), Lambda: h.AllEdges()}
		if got, want := NodeCost(all, m), rows[0]*rows[1]*rows[2]; got != want {
			t.Fatalf("disjoint edges: NodeCost = %g, want the product %g", got, want)
		}
	}
}
