package graph

import (
	"math/rand"
	"testing"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1) // self loop ignored
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatalf("HasEdge wrong")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(9, 0) {
		t.Fatalf("out-of-range HasEdge should be false")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("Components = %v", comps)
	}
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatalf("Clone aliases")
	}
}

func TestAddEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on out-of-range vertex")
		}
	}()
	New(2).AddEdge(0, 5)
}

func TestForest(t *testing.T) {
	if !path(5).IsForest() {
		t.Errorf("path is a forest")
	}
	if cycle(5).IsForest() {
		t.Errorf("cycle is not a forest")
	}
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	if !g.IsForest() {
		t.Errorf("two disjoint edges form a forest")
	}
	if !New(0).IsForest() || !New(3).IsForest() {
		t.Errorf("edgeless graphs are forests")
	}
}

func TestBiconnectedPath(t *testing.T) {
	comps, cuts := path(4).BiconnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("path(4): %d components, want 3 (one per edge)", len(comps))
	}
	if len(cuts) != 2 {
		t.Fatalf("path(4): cuts = %v, want internal vertices {1,2}", cuts)
	}
}

func TestBiconnectedCycle(t *testing.T) {
	comps, cuts := cycle(5).BiconnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 5 {
		t.Fatalf("cycle(5): comps = %v", comps)
	}
	if len(cuts) != 0 {
		t.Fatalf("cycle(5): cuts = %v, want none", cuts)
	}
	if got := cycle(5).MaxBiconnectedSize(); got != 5 {
		t.Fatalf("MaxBiconnectedSize = %d, want 5", got)
	}
}

func TestBiconnectedTwoCyclesSharingVertex(t *testing.T) {
	// vertices 0-1-2-0 and 2-3-4-2: vertex 2 is an articulation point.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	comps, cuts := g.BiconnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("comps = %v, want 2 triangles", comps)
	}
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v, want [2]", cuts)
	}
	if got := g.MaxBiconnectedSize(); got != 3 {
		t.Fatalf("MaxBiconnectedSize = %d, want 3", got)
	}
}

func TestBiconnectedClique(t *testing.T) {
	comps, cuts := clique(6).BiconnectedComponents()
	if len(comps) != 1 || len(cuts) != 0 {
		t.Fatalf("clique: comps=%d cuts=%v", len(comps), cuts)
	}
	if len(comps[0]) != 15 {
		t.Fatalf("clique component has %d edges, want 15", len(comps[0]))
	}
}

// naiveCutVertices: v is a cut vertex iff it has two neighbors that fall in
// different components of g − v.
func naiveCutVertices(g *Graph) []int {
	n := g.N()
	var cuts []int
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v).Elems()
		if len(nbrs) < 2 {
			continue
		}
		// BFS in g − v from the first neighbor.
		seen := make([]bool, n)
		seen[v] = true
		stack := []int{nbrs[0]}
		seen[nbrs[0]] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g.Neighbors(x).ForEach(func(y int) {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			})
		}
		for _, u := range nbrs[1:] {
			if !seen[u] {
				cuts = append(cuts, v)
				break
			}
		}
	}
	return cuts
}

func TestBiconnectedRandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		g := New(n)
		m := rng.Intn(2 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		_, cuts := g.BiconnectedComponents()
		want := naiveCutVertices(g)
		if len(cuts) != len(want) {
			t.Fatalf("trial %d: cuts=%v want=%v graph edges=%d", trial, cuts, want, g.NumEdges())
		}
		for i := range cuts {
			if cuts[i] != want[i] {
				t.Fatalf("trial %d: cuts=%v want=%v", trial, cuts, want)
			}
		}
	}
}

func TestBiconnectedEdgePartition(t *testing.T) {
	// The biconnected components partition the edge set.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		comps, _ := g.BiconnectedComponents()
		seen := map[[2]int]bool{}
		total := 0
		for _, c := range comps {
			for _, e := range c {
				u, v := e[0], e[1]
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				if seen[key] {
					t.Fatalf("edge %v in two components", key)
				}
				seen[key] = true
				total++
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("components cover %d edges, graph has %d", total, g.NumEdges())
		}
	}
}
