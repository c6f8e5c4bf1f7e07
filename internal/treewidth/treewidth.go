// Package treewidth implements tree decompositions of graphs via the
// elimination-ordering framework: the min-fill, min-degree and
// maximal-cardinality greedy orderings (also the greedy GHD engine's, see
// internal/ghd) for heuristic upper bounds, the degeneracy lower bound,
// and an exact branch-and-bound for small graphs. Used by the Section 6
// comparisons: the treewidth of the primal (Gaifman) graph and of the
// variable-atom incidence graph VAIG(Q) (Theorem 6.2).
package treewidth

import (
	"context"
	"fmt"
	"math/rand"

	"hypertree/internal/bitset"
	"hypertree/internal/graph"
	"hypertree/internal/hypergraph"
)

// Decomposition is a rooted tree decomposition: one bag per node of the
// eliminated graph, with Parent[i] = -1 for the root.
type Decomposition struct {
	Bags   []bitset.Set
	Parent []int
	Root   int
}

// Width returns max bag size − 1.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if l := b.Len(); l > w {
			w = l
		}
	}
	return w - 1
}

// Validate checks the three tree-decomposition conditions against g:
// every vertex occurs in a bag, every edge is inside some bag, and the bags
// containing any fixed vertex form a connected subtree.
func (d *Decomposition) Validate(g *graph.Graph) error {
	if len(d.Bags) == 0 {
		if g.N() == 0 {
			return nil
		}
		return fmt.Errorf("treewidth: no bags for non-empty graph")
	}
	var all bitset.Set
	for _, b := range d.Bags {
		all.UnionInPlace(b)
	}
	for v := 0; v < g.N(); v++ {
		if !all.Has(v) {
			return fmt.Errorf("treewidth: vertex %d in no bag", v)
		}
	}
	for u := 0; u < g.N(); u++ {
		uu := u
		var missing bool
		g.Neighbors(u).ForEach(func(w int) {
			if w < uu {
				return
			}
			found := false
			for _, b := range d.Bags {
				if b.Has(uu) && b.Has(w) {
					found = true
					break
				}
			}
			if !found {
				missing = true
			}
		})
		if missing {
			return fmt.Errorf("treewidth: an edge at vertex %d is in no bag", u)
		}
	}
	// connectedness: count local roots per vertex
	for v := 0; v < g.N(); v++ {
		roots := 0
		for i, b := range d.Bags {
			if !b.Has(v) {
				continue
			}
			if p := d.Parent[i]; p < 0 || !d.Bags[p].Has(v) {
				roots++
			}
		}
		if roots != 1 {
			return fmt.Errorf("treewidth: vertex %d induces %d subtrees", v, roots)
		}
	}
	return nil
}

// FromEliminationOrder simulates eliminating the vertices in the given
// order; bag i is {order[i]} ∪ its not-yet-eliminated neighbours in the fill
// graph. It returns the decomposition and the width (max bag − 1).
func FromEliminationOrder(g *graph.Graph, order []int) (*Decomposition, int) {
	n := g.N()
	if len(order) != n {
		panic("treewidth: order must list every vertex exactly once")
	}
	adj := cloneAdj(g)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	d := &Decomposition{Bags: make([]bitset.Set, n), Parent: make([]int, n), Root: n - 1}
	width := 0
	for i, v := range order {
		bag := adj[v].Clone()
		bag.Add(v)
		d.Bags[i] = bag
		if l := bag.Len(); l-1 > width {
			width = l - 1
		}
		// connect the (later) neighbours into a clique and drop v
		nbrs := adj[v].Elems()
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj[nbrs[a]].Add(nbrs[b])
				adj[nbrs[b]].Add(nbrs[a])
			}
		}
		for _, u := range nbrs {
			adj[u].Remove(v)
		}
		// parent: the bag of the earliest-eliminated later neighbour
		if len(nbrs) == 0 {
			d.Parent[i] = -1 // fixed up below
			continue
		}
		best := nbrs[0]
		for _, u := range nbrs {
			if pos[u] < pos[best] {
				best = u
			}
		}
		d.Parent[i] = pos[best]
	}
	// link parentless bags (one per connected component) into a chain so the
	// result is a single tree; the chained bags share no vertices.
	last := -1
	for i := n - 1; i >= 0; i-- {
		if d.Parent[i] == -1 && i != last {
			if last == -1 {
				d.Root = i
			} else {
				d.Parent[i] = last
			}
			last = i
		}
	}
	if n > 0 && last == -1 {
		d.Root = n - 1
	}
	return d, width
}

func cloneAdj(g *graph.Graph) []bitset.Set {
	adj := make([]bitset.Set, g.N())
	for v := 0; v < g.N(); v++ {
		adj[v] = g.Neighbors(v).Clone()
	}
	return adj
}

// Ordering selects a greedy elimination-ordering heuristic.
type Ordering int

const (
	// MinFill eliminates the vertex whose elimination adds the fewest fill
	// edges — the strongest general-purpose heuristic of the three.
	MinFill Ordering = iota
	// MinDegree eliminates the vertex of minimum current degree in the fill
	// graph — cheaper than MinFill, often nearly as good.
	MinDegree
	// MaxCardinality visits vertices by maximal-cardinality search (most
	// already-visited neighbours first) and eliminates in reverse visit
	// order — exact on chordal graphs.
	MaxCardinality
)

// EliminationOrder computes a full elimination order of g under ord.
// rng != nil breaks score ties uniformly at random; rng == nil picks the
// lowest-index vertex. Every vertex selection first observes ctx, then
// calls step (nil = unlimited); an error from either stops the order and
// is returned.
func EliminationOrder(ctx context.Context, g *graph.Graph, ord Ordering, rng *rand.Rand, step func() error) ([]int, error) {
	if ord == MaxCardinality {
		return mcsOrder(ctx, g, rng, step)
	}
	n := g.N()
	adj := cloneAdj(g)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	score := func(v int) int {
		if ord == MinDegree {
			return adj[v].Len()
		}
		// MinFill: pairs of neighbours not yet adjacent
		nbrs := adj[v].Elems()
		fill := 0
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				if !adj[nbrs[a]].Has(nbrs[b]) {
					fill++
				}
			}
		}
		return fill
	}
	order := make([]int, 0, n)
	for len(order) < n {
		if err := takeStep(ctx, step); err != nil {
			return nil, err
		}
		best := pickMin(n, alive, score, rng)
		order = append(order, best)
		// make the remaining neighbours a clique and drop the vertex
		nbrs := adj[best].Elems()
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj[nbrs[a]].Add(nbrs[b])
				adj[nbrs[b]].Add(nbrs[a])
			}
		}
		for _, u := range nbrs {
			adj[u].Remove(best)
		}
		alive[best] = false
	}
	return order, nil
}

func takeStep(ctx context.Context, step func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if step != nil {
		return step()
	}
	return nil
}

// mcsOrder runs maximal-cardinality search on the original graph (no fill
// simulation: MCS scores count visited neighbours) and returns the reverse
// visit order, which is the elimination order MCS induces.
func mcsOrder(ctx context.Context, g *graph.Graph, rng *rand.Rand, step func() error) ([]int, error) {
	n := g.N()
	visited := make([]bool, n)
	weight := make([]int, n)
	visit := make([]int, 0, n)
	unvisited := make([]bool, n)
	for i := range unvisited {
		unvisited[i] = true
	}
	for len(visit) < n {
		if err := takeStep(ctx, step); err != nil {
			return nil, err
		}
		// maximise weight = minimise -weight
		best := pickMin(n, unvisited, func(v int) int { return -weight[v] }, rng)
		visit = append(visit, best)
		visited[best] = true
		unvisited[best] = false
		g.Neighbors(best).ForEach(func(u int) {
			if !visited[u] {
				weight[u]++
			}
		})
	}
	order := make([]int, n)
	for i, v := range visit {
		order[n-1-i] = v
	}
	return order, nil
}

// pickMin returns the eligible vertex with the smallest score; ties go to
// the lowest index, or to a uniformly random tied vertex when rng != nil
// (reservoir sampling over the tied set).
func pickMin(n int, eligible []bool, score func(int) int, rng *rand.Rand) int {
	best, bestScore, ties := -1, 0, 0
	for v := 0; v < n; v++ {
		if !eligible[v] {
			continue
		}
		s := score(v)
		switch {
		case best < 0 || s < bestScore:
			best, bestScore, ties = v, s, 1
		case s == bestScore && rng != nil:
			ties++
			if rng.Intn(ties) == 0 {
				best = v
			}
		}
	}
	return best
}

// Degeneracy returns the graph degeneracy, a lower bound on treewidth.
func Degeneracy(g *graph.Graph) int {
	n := g.N()
	adj := cloneAdj(g)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	degeneracy := 0
	for removed := 0; removed < n; removed++ {
		best, bestDeg := -1, 1<<60
		for v := 0; v < n; v++ {
			if alive[v] && adj[v].Len() < bestDeg {
				best, bestDeg = v, adj[v].Len()
			}
		}
		if bestDeg > degeneracy {
			degeneracy = bestDeg
		}
		alive[best] = false
		adj[best].ForEach(func(u int) { adj[u].Remove(best) })
	}
	return degeneracy
}

// Exact computes the exact treewidth by memoised branch-and-bound over
// elimination prefixes. Exponential: intended for graphs of ≲ 16 vertices
// (the E14/E17 experiment sizes); ub is an initial upper bound (use the
// min-fill width).
func Exact(g *graph.Graph, ub int) int {
	n := g.N()
	if n == 0 {
		return -1
	}
	lb := Degeneracy(g)
	if lb == ub {
		return ub
	}
	for w := lb; w < ub; w++ {
		memo := map[string]bool{}
		if eliminable(cloneAdj(g), bitset.New(n), n, w, memo) {
			return w
		}
	}
	return ub
}

// eliminable reports whether the remaining graph can be fully eliminated
// with all degrees ≤ w at elimination time.
func eliminable(adj []bitset.Set, eliminated bitset.Set, n, w int, memo map[string]bool) bool {
	remaining := n - eliminated.Len()
	if remaining == 0 {
		return true
	}
	key := eliminated.Key()
	if v, ok := memo[key]; ok {
		return v
	}
	result := false
	for v := 0; v < n && !result; v++ {
		if eliminated.Has(v) || adj[v].Len() > w {
			continue
		}
		// eliminate v on a copy
		nbrs := adj[v].Elems()
		adj2 := make([]bitset.Set, n)
		for i := range adj {
			adj2[i] = adj[i].Clone()
		}
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				adj2[nbrs[a]].Add(nbrs[b])
				adj2[nbrs[b]].Add(nbrs[a])
			}
		}
		for _, u := range nbrs {
			adj2[u].Remove(v)
		}
		e2 := eliminated.Clone()
		e2.Add(v)
		result = eliminable(adj2, e2, n, w, memo)
	}
	memo[key] = result
	return result
}

// PrimalTreewidth returns a min-fill upper bound, the degeneracy lower
// bound, and the decomposition for the primal graph of h.
func PrimalTreewidth(h *hypergraph.Hypergraph) (ub, lb int, d *Decomposition) {
	return bounds(h.PrimalGraph())
}

// IncidenceTreewidth is PrimalTreewidth for the variable-atom incidence
// graph VAIG(Q) — the treewidth notion of Theorem 6.2.
func IncidenceTreewidth(h *hypergraph.Hypergraph) (ub, lb int, d *Decomposition) {
	return bounds(h.IncidenceGraph())
}

func bounds(g *graph.Graph) (ub, lb int, d *Decomposition) {
	order, _ := EliminationOrder(context.Background(), g, MinFill, nil, nil) // never cancelled, no step limit
	d, ub = FromEliminationOrder(g, order)
	return ub, Degeneracy(g), d
}
