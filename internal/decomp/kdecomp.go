package decomp

import (
	"context"
	"errors"
	"fmt"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Sentinel errors of the decomposition search. The exported context-aware
// entry points (DecideContext, Search, DecomposeContext, WidthContext and
// MinWidth) report failures through these instead of panicking, so the
// public API can surface typed errors.
var (
	// ErrInvalidWidth reports a width bound k < 1.
	ErrInvalidWidth = errors.New("decomp: width bound must be ≥ 1")
	// ErrWidthExceeded reports that no decomposition exists within the
	// width bound: the search completed and proved hw(H) > k.
	ErrWidthExceeded = errors.New("decomp: hypertree width exceeds the bound")
	// ErrStepBudget reports that the search was cut off by a step budget
	// before completing; the result is neither a yes nor a proven no.
	ErrStepBudget = errors.New("decomp: step budget exhausted before the search completed")
)

// The deterministic realisation of the alternating algorithm k-decomp
// (Figure 10). A call decide(C, frontier) answers the paper's
// k-decomposable(C, R), where frontier = var(atoms(C)) ∩ var(R): the only
// part of the parent separator R that the conditions depend on, which makes
// (C, frontier) a sound memoisation key.
//
// Step 1 guesses S ⊆ edges, 1 ≤ |S| ≤ k, restricted to edges meeting
// C ∪ frontier (other edges influence neither the conditions nor the
// component split). Step 2 checks
//
//	(2a) ∀P ∈ atoms(C): var(P) ∩ var(R) ⊆ var(S)  ⟺  frontier ⊆ var(S)
//	(2b) var(S) ∩ C ≠ ∅
//
// and Step 4 recurses on every [var(S)]-component contained in C (by (2a)
// every component intersecting C is contained in C). Recursion terminates
// because (2b) forces child components to be proper subsets.

// Decider runs the k-decomp decision and construction procedure for a fixed
// hypergraph and width bound.
type Decider struct {
	H *hypergraph.Hypergraph
	K int

	// Ablation switches, set only by this package's tests and
	// BenchmarkAblationKDecomp to quantify the two design choices documented
	// in docs/ARCHITECTURE.md (internal/decomp); both false is the real
	// algorithm.
	//
	// disableMemo turns off subproblem memoisation: the search remains
	// correct (the recursion is finite) but revisits shared components.
	disableMemo bool
	// fullSeparatorKey keys the memo on the entire parent separator var(R)
	// instead of the frontier var(atoms(C)) ∩ var(R). Still sound, but two
	// parents with equal frontiers no longer share their result.
	fullSeparatorKey bool

	b    *Budget // charged one step per candidate set S tested
	memo map[string]*memoEntry

	// Stats, maintained during Decide/Decompose.
	Calls    int // distinct (component, frontier) subproblems solved
	MemoHits int
}

type memoEntry struct {
	ok     bool
	lambda []int // chosen S on success
}

// NewDecider returns a Decider for width bound k ≥ 1 that charges b one
// step per candidate set S tested and stops once b does. A width bound
// k < 1 yields ErrInvalidWidth.
func NewDecider(b *Budget, h *hypergraph.Hypergraph, k int) (*Decider, error) {
	if k < 1 {
		return nil, ErrInvalidWidth
	}
	return &Decider{H: h, K: k, b: b, memo: map[string]*memoEntry{}}, nil
}

func (d *Decider) rootComponent() hypergraph.Component {
	return hypergraph.Component{
		Vertices: d.H.AllVertices(),
		Edges:    d.H.AllEdges().Elems(),
	}
}

// Decide reports whether hw(H) ≤ K (Theorem 5.14: k-decomp accepts iff
// hw(Q) ≤ k).
func (d *Decider) Decide() bool {
	if d.H.NumEdges() == 0 {
		return true
	}
	return d.decide(d.rootComponent(), nil, nil)
}

// Decompose returns a width-≤K hypertree decomposition in normal form, or
// nil if hw(H) > K. The result always passes Validate and CheckNormalForm.
func (d *Decider) Decompose() *Decomposition {
	if d.H.NumEdges() == 0 {
		return &Decomposition{H: d.H}
	}
	if !d.Decide() {
		return nil
	}
	return d.tree()
}

// tree builds the decomposition of a decided root from the memo.
func (d *Decider) tree() *Decomposition {
	return &Decomposition{H: d.H, Root: d.build(d.rootComponent(), nil, nil, nil)}
}

func memoKey(c hypergraph.Component, keySet bitset.Set) string {
	return c.Vertices.Key() + "|" + keySet.Key()
}

// decide answers k-decomposable(C, R). The Step-2 conditions depend on R
// only through the frontier; keySet is what the memo is keyed on (the
// frontier normally, the full var(R) under the fullSeparatorKey ablation —
// nil makes it default to the frontier).
func (d *Decider) decide(c hypergraph.Component, frontier, keySet bitset.Set) bool {
	if len(c.Edges) == 0 {
		// isolated vertices: nothing to cover (possible only in hand-built
		// hypergraphs; queries never produce edge-free components)
		return true
	}
	if keySet == nil {
		keySet = frontier
	}
	key := memoKey(c, keySet)
	if !d.disableMemo {
		if e, ok := d.memo[key]; ok {
			d.MemoHits++
			return e.ok
		}
	}
	d.Calls++
	ok, lambda := d.searchLambda(c, frontier)
	if d.b.Stopped() {
		return false // stopped mid-search: result unreliable, do not memoise
	}
	// Always record the entry: Decompose reconstructs the witness from it
	// even when reads are disabled for the ablation.
	d.memo[key] = &memoEntry{ok: ok, lambda: lambda}
	return ok
}

func (d *Decider) searchLambda(c hypergraph.Component, frontier bitset.Set) (bool, []int) {
	cands := d.candidates(c, frontier)
	var found []int
	ok := d.search(c, frontier, cands, 0, nil, make([]int, 0, d.K), &found)
	return ok, found
}

// candidates returns the edges that can usefully appear in S: those meeting
// C ∪ frontier.
func (d *Decider) candidates(c hypergraph.Component, frontier bitset.Set) []int {
	region := c.Vertices.Union(frontier)
	var out []int
	for e := 0; e < d.H.NumEdges(); e++ {
		if d.H.Edge(e).Intersects(region) {
			out = append(out, e)
		}
	}
	return out
}

// search enumerates subsets of cands of size ≤ K with indices increasing
// from from; varS is the union of vertex sets of chosen. On finding a valid
// S whose components all decompose, the chosen edges are copied to *found.
func (d *Decider) search(c hypergraph.Component, frontier bitset.Set, cands []int, from int, varS bitset.Set, chosen []int, found *[]int) bool {
	if d.b.Stopped() {
		return false
	}
	if len(chosen) > 0 {
		if !d.b.Take() {
			return false
		}
		if frontier.SubsetOf(varS) && varS.Intersects(c.Vertices) && d.checkChildren(c, varS) {
			*found = append([]int(nil), chosen...)
			return true
		}
	}
	if len(chosen) == d.K {
		return false
	}
	for i := from; i < len(cands); i++ {
		e := cands[i]
		if d.search(c, frontier, cands, i+1, varS.Union(d.H.Edge(e)), append(chosen, e), found) {
			return true
		}
	}
	return false
}

// checkChildren verifies Step 4: every [var(S)]-component inside C must be
// k-decomposable with S as the new parent separator.
func (d *Decider) checkChildren(c hypergraph.Component, varS bitset.Set) bool {
	for _, child := range d.H.ComponentsWithin(varS, c.Vertices) {
		var keySet bitset.Set
		if d.fullSeparatorKey {
			keySet = varS
		}
		if !d.decide(child, d.H.Frontier(child, varS), keySet) {
			return false
		}
	}
	return true
}

// build reconstructs the witness tree (Section 5.2) from the memo: the node
// for (C, frontier) gets λ = S and χ = var(λ(s)) ∩ (χ(parent) ∪ C), the
// paper's q-labelling of witness trees (which yields normal form,
// Lemma 5.13). The decision only depends on the frontier, so memo entries
// are reusable under any parent with the same frontier; the χ labels are
// specialised here to the actual parent.
func (d *Decider) build(c hypergraph.Component, frontier, keySet, parentChi bitset.Set) *Node {
	if keySet == nil {
		keySet = frontier
	}
	entry := d.memo[memoKey(c, keySet)]
	if entry == nil || !entry.ok {
		panic("decomp: build called on undecided component")
	}
	lambda := bitset.FromSlice(entry.lambda)
	varS := d.H.Vars(lambda)
	chi := varS.Intersect(parentChi.Union(c.Vertices))
	n := &Node{Chi: chi, Lambda: lambda}
	for _, child := range d.H.ComponentsWithin(varS, c.Vertices) {
		if len(child.Edges) == 0 {
			continue
		}
		var childKey bitset.Set
		if d.fullSeparatorKey {
			childKey = varS
		}
		n.Children = append(n.Children, d.build(child, d.H.Frontier(child, varS), childKey, chi))
	}
	return n
}

// Decide reports whether hw(H) ≤ k; a width bound k < 1 reports false.
func Decide(h *hypergraph.Hypergraph, k int) bool {
	ok, _ := DecideContext(context.Background(), h, k)
	return ok
}

// Width computes hw(H) exactly by increasing k, together with an optimal
// decomposition. For the empty hypergraph it returns (0, empty).
func Width(h *hypergraph.Hypergraph) (int, *Decomposition) {
	w, d, err := WidthContext(context.Background(), h, 0, 0)
	if err != nil {
		panic(err) // unbudgeted and never cancelled: only a search bug fails
	}
	return w, d
}

// DecideContext is Decide with cancellation: it reports whether hw(H) ≤ k,
// ErrInvalidWidth for k < 1, or ctx.Err() if the context is cancelled
// mid-search.
func DecideContext(ctx context.Context, h *hypergraph.Hypergraph, k int) (bool, error) {
	b := NewBudget(ctx, 0)
	d, err := NewDecider(b, h, k)
	if err != nil {
		return false, err
	}
	ok := d.Decide()
	if err := b.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// Search is the width-k k-decomp search and the one place that picks how it
// runs: at most one worker runs the Decider on the calling goroutine, more
// fan the root guesses out over that many goroutines (parallel.go); either
// way every guess is charged to b. It returns a normal-form decomposition
// of width ≤ k, or ErrInvalidWidth for k < 1, ErrWidthExceeded when the
// completed search proves hw(H) > k, and b.Err() when b stopped it first.
func Search(b *Budget, h *hypergraph.Hypergraph, k, workers int) (*Decomposition, error) {
	d, err := NewDecider(b, h, k)
	if err != nil {
		return nil, err
	}
	if workers > 1 && h.NumEdges() > 0 {
		return parallelSearch(b, h, k, workers)
	}
	dec := d.Decompose()
	if err := b.Err(); err != nil {
		return nil, err
	}
	if dec == nil {
		return nil, ErrWidthExceeded
	}
	return dec, nil
}

// DecomposeContext is Search on the calling goroutine under a budget of
// maxGuesses steps (0 = unlimited).
func DecomposeContext(ctx context.Context, h *hypergraph.Hypergraph, k, maxGuesses int) (*Decomposition, error) {
	return Search(NewBudget(ctx, maxGuesses), h, k, 1)
}

// WidthContext minimises the width with Search on the calling goroutine
// (MinWidth from k = 1): maxGuesses is one step budget for all levels, and
// maxK > 0 stops after level maxK.
func WidthContext(ctx context.Context, h *hypergraph.Hypergraph, maxGuesses, maxK int) (int, *Decomposition, error) {
	b := NewBudget(ctx, maxGuesses)
	return MinWidth(h, 1, maxK, func(k int) (*Decomposition, error) {
		return Search(b, h, k, 1)
	})
}

// MinWidth is the minimising width search of k-decomp and of query
// decomposition: it runs search at k = lower, lower+1, … (lower < 1 counts
// as 1) and returns the first level that yields a decomposition. search(k)
// returns ErrWidthExceeded when it proves the width exceeds k; the levels
// share whatever Budget search charges, so an exhausted budget ends the
// loop like any other error. maxK > 0 returns ErrWidthExceeded after level
// maxK; up to it the levels are the uncapped search's, so a width ≤ maxK
// gives the same result.
func MinWidth(h *hypergraph.Hypergraph, lower, maxK int, search func(k int) (*Decomposition, error)) (int, *Decomposition, error) {
	if h.NumEdges() == 0 {
		return 0, &Decomposition{H: h}, nil
	}
	for k := max(lower, 1); ; k++ {
		d, err := search(k)
		switch {
		case err == nil:
			return k, d, nil
		case !errors.Is(err, ErrWidthExceeded) || k == maxK:
			return 0, nil, err
		case k > h.NumEdges():
			return 0, nil, fmt.Errorf("decomp: width search exceeded edge count %d", h.NumEdges())
		}
	}
}
