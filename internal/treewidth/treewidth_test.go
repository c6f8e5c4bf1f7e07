package treewidth

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/gen"
	"hypertree/internal/graph"
)

func path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *graph.Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func clique(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// greedy is EliminationOrder never cancelled and without a step limit.
func greedy(g *graph.Graph, ord Ordering) []int {
	order, err := EliminationOrder(context.Background(), g, ord, nil, nil)
	if err != nil {
		panic(err)
	}
	return order
}

func widthOf(g *graph.Graph, order []int, t *testing.T) int {
	d, w := FromEliminationOrder(g, order)
	if err := d.Validate(g); err != nil {
		t.Fatalf("decomposition invalid: %v", err)
	}
	if d.Width() != w {
		t.Fatalf("width mismatch: %d vs %d", d.Width(), w)
	}
	return w
}

func TestKnownTreewidths(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		tw   int
	}{
		{"path5", path(5), 1},
		{"cycle5", cycle(5), 2},
		{"clique5", clique(5), 4},
		{"singleton", graph.New(1), 0},
		{"two isolated", graph.New(2), 0},
	}
	for _, tc := range cases {
		ubFill := widthOf(tc.g, greedy(tc.g, MinFill), t)
		ubDeg := widthOf(tc.g, greedy(tc.g, MinDegree), t)
		lb := Degeneracy(tc.g)
		exact := Exact(tc.g, min(ubFill, ubDeg))
		if exact != tc.tw {
			t.Errorf("%s: exact = %d, want %d", tc.name, exact, tc.tw)
		}
		if ubFill < tc.tw || ubDeg < tc.tw {
			t.Errorf("%s: heuristic below exact (fill=%d deg=%d tw=%d)", tc.name, ubFill, ubDeg, tc.tw)
		}
		if lb > tc.tw {
			t.Errorf("%s: degeneracy %d exceeds tw %d", tc.name, lb, tc.tw)
		}
	}
}

func TestGridTreewidth(t *testing.T) {
	// the 3×3 grid has treewidth 3
	g := graph.New(9)
	at := func(r, c int) int { return 3*r + c }
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c+1 < 3 {
				g.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < 3 {
				g.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	ub := widthOf(g, greedy(g, MinFill), t)
	if got := Exact(g, ub); got != 3 {
		t.Fatalf("tw(3×3 grid) = %d, want 3", got)
	}
}

// Property: on random graphs degeneracy ≤ exact ≤ min-fill, and every
// heuristic decomposition validates.
func TestPropertyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		g := graph.New(n)
		for i := 0; i < rng.Intn(2*n); i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		ub := widthOf(g, greedy(g, MinFill), t)
		ub2 := widthOf(g, greedy(g, MinDegree), t)
		lb := Degeneracy(g)
		exact := Exact(g, min(ub, ub2))
		if lb > exact || exact > ub || exact > ub2 {
			t.Fatalf("trial %d: lb=%d exact=%d fill=%d deg=%d", trial, lb, exact, ub, ub2)
		}
	}
}

func TestValidateRejectsBadDecompositions(t *testing.T) {
	g := path(3)
	d, _ := FromEliminationOrder(g, greedy(g, MinFill))
	// drop a vertex from every bag
	for i := range d.Bags {
		d.Bags[i].Remove(1)
	}
	if err := d.Validate(g); err == nil {
		t.Fatalf("missing vertex not detected")
	}
}

func TestFromEliminationOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on short order")
		}
	}()
	FromEliminationOrder(path(3), []int{0, 1})
}

// E14 / Theorem 6.2: the class C_n has incidence treewidth exactly n
// (upper bound from min-fill, lower bound from degeneracy), while its
// primal treewidth is n+... and hypertree width stays 1 (tested in the
// bench/facade suites).
func TestE14ClassCnIncidenceTreewidth(t *testing.T) {
	for n := 2; n <= 6; n++ {
		q := gen.ClassCn(n)
		h, _ := q.Hypergraph()
		ub, lb, d := IncidenceTreewidth(h)
		if err := d.Validate(h.IncidenceGraph()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ub != n || lb != n {
			t.Fatalf("n=%d: incidence treewidth bounds [%d, %d], want exactly %d", n, lb, ub, n)
		}
	}
}

func TestPrimalTreewidthOfTriangle(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	h, _ := q.Hypergraph()
	ub, lb, d := PrimalTreewidth(h)
	if err := d.Validate(h.PrimalGraph()); err != nil {
		t.Fatal(err)
	}
	if ub != 2 || lb != 2 {
		t.Fatalf("primal tw of triangle = [%d, %d], want 2", lb, ub)
	}
}
