// Package csp implements the structural CSP decomposition baselines that
// Section 6 of the paper (and its companion [21]) compares hypertree width
// against: Freuder's biconnected components, Dechter's cycle cutsets, and
// Dechter–Pearl tree clustering. Each method yields a width measure on the
// primal graph of a query; the E17 experiment reports these side by side
// with treewidth, query-width and hypertree-width.
//
// The hinge decomposition method of Gyssens–Jeavons–Cohen is not
// implemented; docs/ARCHITECTURE.md records this as the one intentionally
// omitted baseline.
package csp

import (
	"hypertree/internal/graph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/treewidth"
)

// BiconnectedWidth is Freuder's measure: the size of the largest
// biconnected component of the primal graph (solving proceeds component by
// component along the block tree). Acyclic primal graphs give width ≤ 2.
func BiconnectedWidth(h *hypergraph.Hypergraph) int {
	return h.PrimalGraph().MaxBiconnectedSize()
}

// CycleCutset returns a vertex set whose removal makes the primal graph a
// forest, found greedily (repeatedly removing a max-degree vertex from some
// remaining cycle). Dechter's cycle-cutset method costs O(n·d^(cut+2)), so
// the width measure reported by CutsetWidth is |cutset| + 1.
func CycleCutset(h *hypergraph.Hypergraph) []int {
	g := h.PrimalGraph().Clone()
	var cut []int
	for !g.IsForest() {
		// remove the highest-degree vertex on some cycle; a vertex of a
		// cycle has degree ≥ 2 in its 2-core
		core := twoCore(g)
		best, bestDeg := -1, -1
		core.currentVertices(func(v int) {
			if d := core.g.Degree(v); d > bestDeg {
				best, bestDeg = v, d
			}
		})
		if best < 0 {
			break
		}
		g.IsolateVertex(best)
		cut = append(cut, best)
	}
	return cut
}

// CutsetWidth returns |cutset| + 1, the width measure used in the
// comparisons of [21].
func CutsetWidth(h *hypergraph.Hypergraph) int {
	return len(CycleCutset(h)) + 1
}

// TreeClusteringWidth is the Dechter–Pearl measure: triangulate the primal
// graph (min-fill) and report the size of the largest clique of the chordal
// supergraph, i.e. the largest bag (treewidth + 1).
func TreeClusteringWidth(h *hypergraph.Hypergraph) int {
	if h.NumVertices() == 0 {
		return 0
	}
	w, _, _ := treewidth.PrimalTreewidth(h)
	return w + 1
}

type core struct {
	g     *graph.Graph
	alive []bool
}

// twoCore strips degree-≤1 vertices repeatedly; what remains are exactly
// the vertices lying on cycles.
func twoCore(g *graph.Graph) *core {
	c := &core{g: g.Clone(), alive: make([]bool, g.N())}
	for i := range c.alive {
		c.alive[i] = true
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < c.g.N(); v++ {
			if c.alive[v] && c.g.Degree(v) <= 1 {
				c.alive[v] = false
				c.g.IsolateVertex(v)
				changed = true
			}
		}
	}
	return c
}

func (c *core) currentVertices(f func(int)) {
	for v := 0; v < c.g.N(); v++ {
		if c.alive[v] && c.g.Degree(v) > 0 {
			f(v)
		}
	}
}

// Methods compares every implemented width measure on one query hypergraph.
// The hw and qw fields must be filled by the caller (they live in packages
// decomp and querydecomp; this package stays dependency-light).
type Methods struct {
	Biconnected    int
	CutsetSize     int
	TreeClustering int
	PrimalTW       int // min-fill upper bound
	IncidenceTW    int // min-fill upper bound
}

// Measure computes all graph-based width measures of h.
func Measure(h *hypergraph.Hypergraph) Methods {
	ptw, _, _ := treewidth.PrimalTreewidth(h)
	itw, _, _ := treewidth.IncidenceTreewidth(h)
	return Methods{
		Biconnected:    BiconnectedWidth(h),
		CutsetSize:     len(CycleCutset(h)),
		TreeClustering: TreeClusteringWidth(h),
		PrimalTW:       ptw,
		IncidenceTW:    itw,
	}
}
