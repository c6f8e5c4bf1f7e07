// Package querydecomp implements query decompositions in the sense of
// Chekuri & Rajaraman as formalised in Definition 3.1 of Gottlob, Leone &
// Scarcello (JCSS 2002): a tree whose nodes are labelled with sets of atoms
// (we work with pure decompositions, justified by Proposition 3.3), subject
// to atom-occurrence and variable connectedness conditions. The width is the
// maximum label cardinality and qw(Q) the minimum width.
//
// Deciding qw(Q) ≤ 4 is NP-complete (Theorem 3.4), so unlike package decomp
// this package provides an exponential exact search, intended for the small
// instances of the paper's examples and the Section 7 reduction. The search
// explores decompositions in a reduced form: every node's label shares a
// variable with at least one of the components assigned to its subtree
// (the analogue of normal-form condition 2). The search is sound — every
// returned decomposition passes Validate — and exact on the families studied
// in the paper.
package querydecomp

import (
	"context"
	"fmt"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// Validate checks the three conditions of Definition 3.1 for a pure query
// decomposition: node labels are λ sets of edges ("atoms"), χ is derived as
// var(λ) and must equal the stored Chi.
//
//  1. every atom occurs in some label;
//  2. for each atom A, {p : A ∈ λ(p)} induces a connected subtree;
//  3. for each variable Y, {p : Y ∈ var(λ(p))} induces a connected subtree.
func Validate(d *decomp.Decomposition) error {
	h := d.H
	if d.Root == nil {
		if h.NumEdges() == 0 {
			return nil
		}
		return fmt.Errorf("querydecomp: empty decomposition for non-empty hypergraph")
	}
	nodes := d.Nodes()
	parent := map[*decomp.Node]*decomp.Node{}
	for _, n := range nodes {
		if !n.Chi.Equal(h.Vars(n.Lambda)) {
			return fmt.Errorf("querydecomp: not pure: χ ≠ var(λ) at node λ=%v", h.EdgeNames(n.Lambda))
		}
		for _, c := range n.Children {
			parent[c] = n
		}
	}

	// Condition 1.
	for e := 0; e < h.NumEdges(); e++ {
		found := false
		for _, n := range nodes {
			if n.Lambda.Has(e) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("querydecomp: condition 1 violated: atom %s occurs in no label", h.EdgeName(e))
		}
	}

	// Conditions 2 and 3 via the local-roots criterion: a subset of tree
	// nodes induces a connected subtree iff exactly one member's parent is
	// outside the subset.
	connected := func(member func(n *decomp.Node) bool) bool {
		roots, any := 0, false
		for _, n := range nodes {
			if !member(n) {
				continue
			}
			any = true
			if p := parent[n]; p == nil || !member(p) {
				roots++
			}
		}
		return !any || roots == 1
	}
	for e := 0; e < h.NumEdges(); e++ {
		if !connected(func(n *decomp.Node) bool { return n.Lambda.Has(e) }) {
			return fmt.Errorf("querydecomp: condition 2 violated: occurrences of atom %s disconnected", h.EdgeName(e))
		}
	}
	for v := 0; v < h.NumVertices(); v++ {
		if !connected(func(n *decomp.Node) bool { return n.Chi.Has(v) }) {
			return fmt.Errorf("querydecomp: condition 3 violated: variable %s disconnected", h.VertexName(v))
		}
	}
	return nil
}

// Searcher holds the state of the exact width-k query decomposition search.
type Searcher struct {
	H *hypergraph.Hypergraph
	K int

	// MaxSteps bounds the number of (S, deferral) trials; 0 means no bound.
	// When the bound is hit the search reports "not found" with Exhausted
	// set to false, so callers can distinguish a proof of non-existence
	// from a budget cut-off.
	MaxSteps int

	Steps     int  // trials performed
	Exhausted bool // true when the search space was fully explored

	claimed   []int // per-edge placement count along the current path
	over      bool
	stop      func() bool // optional cooperative cancellation; nil = never
	cancelled bool        // the stop hook (not the budget) aborted the search
}

// NewSearcher returns a Searcher for width bound k ≥ 1 whose search polls
// ctx between trials and aborts promptly once it is cancelled. A width
// bound k < 1 yields decomp.ErrInvalidWidth.
func NewSearcher(ctx context.Context, h *hypergraph.Hypergraph, k int) (*Searcher, error) {
	if k < 1 {
		return nil, decomp.ErrInvalidWidth
	}
	return &Searcher{H: h, K: k, claimed: make([]int, h.NumEdges()), stop: decomp.CtxStop(ctx)}, nil
}

// Err reports why the last Search stopped early: the context's error on
// cancellation, decomp.ErrStepBudget when MaxSteps ran out, nil when the
// search ran to completion.
func (s *Searcher) Err(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if s.over && !s.cancelled {
		return decomp.ErrStepBudget
	}
	return nil
}

// Search looks for a pure query decomposition of width ≤ K. It returns the
// decomposition and true on success. On failure, Exhausted tells whether the
// space was fully explored (a genuine "no") or the step budget ran out.
func (s *Searcher) Search() (*decomp.Decomposition, bool) {
	h := s.H
	s.Exhausted = true
	if h.NumEdges() == 0 {
		return &decomp.Decomposition{H: h}, true
	}
	all := h.AllVertices()
	edges := make([]int, h.NumEdges())
	for i := range edges {
		edges[i] = i
	}
	var root *decomp.Node
	s.combos(edges, func(S []int) bool {
		if s.budget() {
			return true // abort enumeration, s.over is set
		}
		varS := h.VarsOfList(S)
		comps := filterEdgeless(h.ComponentsWithin(varS, all))
		for _, e := range S {
			s.claimed[e]++
		}
		children, ok := s.solveComps(bitset.FromSlice(S), varS, comps)
		if ok {
			root = &decomp.Node{Chi: varS, Lambda: bitset.FromSlice(S), Children: children}
			return true
		}
		for _, e := range S {
			s.claimed[e]--
		}
		return false
	})
	if root == nil {
		s.Exhausted = !s.over
		return nil, false
	}
	d := &decomp.Decomposition{H: h, Root: root}
	s.attachUnplaced(d)
	return d, true
}

// Width computes qw(H) exactly, together with an optimal decomposition.
// lower is a known lower bound (use 1, or hw(H) per Theorem 6.1a to skip
// unsatisfiable widths).
func Width(h *hypergraph.Hypergraph, lower int) (int, *decomp.Decomposition) {
	w, d, err := WidthContext(context.Background(), h, lower, 0)
	if err != nil {
		panic(err) // unbudgeted and never cancelled: only a search bug fails
	}
	return w, d
}

// SearchContext looks for a pure query decomposition of width ≤ k with
// cancellation and a step budget. It returns decomp.ErrInvalidWidth for
// k < 1, decomp.ErrWidthExceeded when the exhaustive search proves
// qw(H) > k, decomp.ErrStepBudget when maxSteps ran out first, or
// ctx.Err() on cancellation.
func SearchContext(ctx context.Context, h *hypergraph.Hypergraph, k, maxSteps int) (*decomp.Decomposition, error) {
	d, _, err := search(ctx, h, k, maxSteps)
	return d, err
}

// search is SearchContext that also returns the steps spent.
func search(ctx context.Context, h *hypergraph.Hypergraph, k, maxSteps int) (*decomp.Decomposition, int, error) {
	s, err := NewSearcher(ctx, h, k)
	if err != nil {
		return nil, 0, err
	}
	s.MaxSteps = maxSteps
	d, ok := s.Search()
	if err := s.Err(ctx); err != nil {
		return nil, s.Steps, err
	}
	if !ok {
		return nil, s.Steps, decomp.ErrWidthExceeded
	}
	return d, s.Steps, nil
}

// WidthContext is Width with cancellation and a cumulative step budget
// shared across the increasing-k iterations (0 = unlimited): decomp.MinWidth
// over SearchContext from k = lower.
func WidthContext(ctx context.Context, h *hypergraph.Hypergraph, lower, maxSteps int) (int, *decomp.Decomposition, error) {
	return decomp.MinWidth(h, lower, maxSteps, 0, func(k, budget int) (*decomp.Decomposition, int, error) {
		return search(ctx, h, k, budget)
	})
}

func filterEdgeless(cs []hypergraph.Component) []hypergraph.Component {
	out := cs[:0:0]
	for _, c := range cs {
		if len(c.Edges) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// combos enumerates the non-empty subsets of cands of size ≤ K, calling f on
// each until f returns true.
func (s *Searcher) combos(cands []int, f func([]int) bool) bool {
	var rec func(from int, chosen []int) bool
	rec = func(from int, chosen []int) bool {
		if len(chosen) > 0 && f(chosen) {
			return true
		}
		if len(chosen) == s.K {
			return false
		}
		for i := from; i < len(cands); i++ {
			if rec(i+1, append(chosen, cands[i])) {
				return true
			}
		}
		return false
	}
	return rec(0, make([]int, 0, s.K))
}

func (s *Searcher) budget() bool {
	s.Steps++
	if s.MaxSteps > 0 && s.Steps > s.MaxSteps {
		s.over = true
	}
	if !s.over && s.stop != nil && s.stop() {
		s.over = true
		s.cancelled = true
	}
	return s.over
}

// solveComps hangs a forest below a node labelled R (with variables varR)
// that handles every component in comps. It returns the forest's roots.
//
// The first component is the branching target: exactly one child branch of
// the R-node handles it. A branch is defined by its label S plus a set D of
// deferred components (components untouched by var(S) that are routed deeper
// into the same branch — the chain pattern of the paper's Fig. 11 requires
// this). The branch's group is then {components touched by var(S)} ∪ D.
func (s *Searcher) solveComps(r bitset.Set, varR bitset.Set, comps []hypergraph.Component) ([]*decomp.Node, bool) {
	if s.over {
		return nil, false
	}
	if len(comps) == 0 {
		return nil, true
	}
	h := s.H

	var allCompVars bitset.Set
	for _, c := range comps {
		allCompVars.UnionInPlace(c.Vertices)
	}

	// Candidate atoms for a child label: exactness requires
	// var(P) ⊆ var(R) ∪ (vars of the branch group); a necessary relaxation
	// is var(P) ⊆ var(R) ∪ allCompVars. Occurrence connectivity requires
	// P ∈ atoms(some comp) ∨ P ∈ R ∨ P unclaimed.
	region := varR.Union(allCompVars)
	inComp := make([]bool, h.NumEdges())
	for _, c := range comps {
		for _, e := range c.Edges {
			inComp[e] = true
		}
	}
	var cands []int
	for e := 0; e < h.NumEdges(); e++ {
		if !h.Edge(e).SubsetOf(region) {
			continue
		}
		if inComp[e] || r.Has(e) || s.claimed[e] == 0 {
			cands = append(cands, e)
		}
	}

	var result []*decomp.Node
	found := s.combos(cands, func(S []int) bool {
		if s.budget() {
			return true // abort enumeration; found stays false via s.over
		}
		varS := h.VarsOfList(S)

		// exactness per chosen atom is rechecked against the actual group
		// below; first split comps into touched / untouched.
		var touched, untouched []hypergraph.Component
		for _, c := range comps {
			if c.Vertices.Intersects(varS) {
				touched = append(touched, c)
			} else {
				untouched = append(untouched, c)
			}
		}
		if len(touched) == 0 {
			return false // reduced form: the label must touch its group
		}
		// frontier condition for touched components
		for _, c := range touched {
			if !h.Frontier(c, varR).SubsetOf(varS) {
				return false
			}
		}
		// exactness: var(S) ⊆ var(R) ∪ vars(touched)
		var touchedVars bitset.Set
		for _, c := range touched {
			touchedVars.UnionInPlace(c.Vertices)
		}
		if !varS.SubsetOf(varR.Union(touchedVars)) {
			return false
		}
		targetTouched := sameComponent(touched, comps[0])

		// Enumerate deferred sets D ⊆ untouched. D members must satisfy the
		// frontier condition; the target must be in the group.
		var deferable []hypergraph.Component
		for _, c := range untouched {
			if h.Frontier(c, varR).SubsetOf(varS) {
				deferable = append(deferable, c)
			}
		}
		if !targetTouched && !sameComponent(deferable, comps[0]) {
			return false
		}
		Sset := bitset.FromSlice(S)
		return s.deferSets(deferable, targetTouched, comps[0], func(D []hypergraph.Component) bool {
			return s.tryBranch(r, varR, comps, S, Sset, varS, touched, touchedVars, D, &result)
		})
	})
	if !found || s.over {
		return nil, false
	}
	return result, true
}

// deferSets enumerates subsets D of deferable, requiring target ∈ D when the
// target component is not touched. The empty deferral is tried first.
func (s *Searcher) deferSets(deferable []hypergraph.Component, targetTouched bool, target hypergraph.Component, f func([]hypergraph.Component) bool) bool {
	var rec func(i int, cur []hypergraph.Component, hasTarget bool) bool
	rec = func(i int, cur []hypergraph.Component, hasTarget bool) bool {
		if i == len(deferable) {
			if targetTouched || hasTarget {
				return f(cur)
			}
			return false
		}
		// skip deferable[i]
		if rec(i+1, cur, hasTarget) {
			return true
		}
		// include deferable[i]
		return rec(i+1, append(cur, deferable[i]),
			hasTarget || deferable[i].Vertices.Equal(target.Vertices))
	}
	return rec(0, nil, false)
}

func (s *Searcher) tryBranch(r, varR bitset.Set, comps []hypergraph.Component,
	S []int, Sset, varS bitset.Set,
	touched []hypergraph.Component, touchedVars bitset.Set,
	D []hypergraph.Component, result *[]*decomp.Node) bool {

	if s.budget() {
		return true
	}
	h := s.H
	groupVars := touchedVars.Clone()
	for _, c := range D {
		groupVars.UnionInPlace(c.Vertices)
	}
	childComps := filterEdgeless(h.ComponentsWithin(varS, groupVars))
	var childCompVars bitset.Set
	for _, c := range childComps {
		childCompVars.UnionInPlace(c.Vertices)
	}
	// satisfaction: every atom of a touched component must be placed here,
	// coverable here, or passed down to a child component.
	for _, c := range touched {
		for _, e := range c.Edges {
			if Sset.Has(e) || h.Edge(e).SubsetOf(varS) || h.Edge(e).Intersects(childCompVars) {
				continue
			}
			return false
		}
	}
	for _, e := range S {
		s.claimed[e]++
	}
	children, ok := s.solveComps(Sset, varS, childComps)
	if ok {
		rest := subtractGroup(comps, touched, D)
		siblings, ok2 := s.solveComps(r, varR, rest)
		if ok2 {
			node := &decomp.Node{Chi: varS, Lambda: Sset, Children: children}
			*result = append(siblings, node)
			return true
		}
	}
	for _, e := range S {
		s.claimed[e]--
	}
	return false
}

func sameComponent(cs []hypergraph.Component, c hypergraph.Component) bool {
	for i := range cs {
		if cs[i].Vertices.Equal(c.Vertices) {
			return true
		}
	}
	return false
}

func subtractGroup(comps, touched, d []hypergraph.Component) []hypergraph.Component {
	var out []hypergraph.Component
	for _, c := range comps {
		if sameComponent(touched, c) || sameComponent(d, c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// attachUnplaced adds a leaf {A} below some node covering var(A) for every
// atom that occurs in no label yet, establishing condition 1. A covering
// node exists for every unplaced atom by construction of the search.
func (s *Searcher) attachUnplaced(d *decomp.Decomposition) {
	h := d.H
	nodes := d.Nodes()
	placed := make([]bool, h.NumEdges())
	for _, n := range nodes {
		n.Lambda.ForEach(func(e int) { placed[e] = true })
	}
	for e := 0; e < h.NumEdges(); e++ {
		if placed[e] {
			continue
		}
		attached := false
		for _, n := range nodes {
			if h.Edge(e).SubsetOf(n.Chi) {
				n.Children = append(n.Children, &decomp.Node{
					Chi:    h.Edge(e).Clone(),
					Lambda: bitset.Of(e),
				})
				attached = true
				break
			}
		}
		if !attached {
			panic(fmt.Sprintf("querydecomp: internal error: no covering node for atom %s", h.EdgeName(e)))
		}
	}
}
