// Package ghd computes generalized hypertree decompositions by greedy
// heuristics. A GHD drops the special condition (4) of Definition 4.1 and
// keeps the three cover conditions, which is all the Lemma 4.6 evaluation
// needs; the generalized width ghw satisfies hw/3 ≤ ghw ≤ hw (Fischl,
// Gottlob & Pichler, "General and Fractional Hypertree Decompositions:
// Hard and Easy Cases"), so a small-width GHD is as good as a hypertree
// decomposition for query evaluation while being far cheaper to find.
//
// The method is the classical two-phase heuristic (cf. Greco & Scarcello,
// "Greedy Strategies and Larger Islands of Tractability"):
//
//  1. a greedy vertex elimination ordering of the primal graph — min-fill,
//     min-degree or maximal-cardinality search — yields a tree decomposition
//     whose bags become the χ labels;
//  2. a greedy set-cover pass converts each bag into a λ label (the fewest
//     hyperedges whose union covers the bag), yielding the GHD.
//
// An improvement loop tries every ordering plus randomized tie-breaking
// restarts and keeps the smallest width found. The loop runs
// under the same context/step-budget plumbing as the exact searches: one
// step is one vertex elimination decision, and an exhausted budget returns
// the best decomposition found so far (or ErrStepBudget if none completed).
// Unlike the exact k-decomp search the runtime is polynomial — O(trials ·
// n²·d) rather than exponential in the width bound — at the price of width
// optimality.
package ghd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/graph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/treewidth"
)

// seeds are each ordering's trials in order: 0 is the deterministic pass
// (ties go to the lowest index), the others seed randomized tie-breaking
// restarts.
var seeds = []int64{0, 2, 3}

// Decompose runs the greedy improvement loop on h and returns the best GHD
// found, ranked by Best under model. maxWidth > 0 bounds the accepted width
// — since the heuristic cannot prove non-existence, ErrWidthExceeded then
// only means "no trial reached the bound" — and, without a model, stops the
// loop at the first trial within it (Best.Done). stepBudget > 0 bounds the
// cumulative number of vertex elimination decisions across all trials;
// when it runs out the best decomposition found so far is returned, or
// ErrStepBudget if no trial completed. A non-nil model (the compilation's
// statistics) decides only what the width leaves open: GreedyCoverCost
// breaks coverage ties toward the smaller estimated node table, and Best
// breaks width ties toward the lower total estimated cost.
func Decompose(ctx context.Context, h *hypergraph.Hypergraph, model *decomp.CostModel, maxWidth, stepBudget int) (*decomp.Decomposition, error) {
	best := Best{Model: model}
	err := ForEachShape(ctx, h, model, decomp.NewBudget(ctx, stepBudget), func(d *decomp.Decomposition) error {
		best.Offer(d)
		if best.Done(maxWidth) {
			return errDone
		}
		return nil
	})
	if err != nil && err != errDone && err != decomp.ErrStepBudget {
		return nil, err
	}
	return best.Result(ctx, maxWidth)
}

// errDone stops Decompose's shape loop once Best is done.
var errDone = errors.New("ghd: satisfying decomposition found")

// Best ranks the decompositions offered to it in trial order by the
// improvement loop's rule: the smallest width wins; with statistics (Model
// non-nil) equal widths break to the lower total estimated cost — same-width
// decompositions can differ enormously in evaluation cost depending on
// which relations their λ labels joined — and then to the earlier offer.
type Best struct {
	// Model is the compilation's cost model; nil ranks by width alone.
	Model *decomp.CostModel
	// D is the best decomposition offered so far, nil before the first.
	D     *decomp.Decomposition
	width int
	cost  float64
}

// Offer ranks d against the incumbent, keeps it if it wins, and reports
// whether it did.
func (b *Best) Offer(d *decomp.Decomposition) bool {
	w := d.Width()
	cost := 0.0
	if b.Model != nil {
		cost = d.CostWith(b.Model)
	}
	if b.D == nil || w < b.width || (w == b.width && b.Model != nil && cost < b.cost) {
		b.D, b.width, b.cost = d, w, cost
		return true
	}
	return false
}

// Done is the loop's stop rule: the incumbent satisfies maxWidth > 0 and
// there is no model (with statistics the remaining trials still compete on
// cost, so a width bound does not cut the loop short).
func (b *Best) Done(maxWidth int) bool {
	return b.D != nil && maxWidth > 0 && b.width <= maxWidth && b.Model == nil
}

// Result is the loop's verdict: the incumbent, ErrWidthExceeded when it
// misses the bound, or ctx.Err() or ErrStepBudget when no trial completed.
func (b *Best) Result(ctx context.Context, maxWidth int) (*decomp.Decomposition, error) {
	if b.D == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, decomp.ErrStepBudget
	}
	if maxWidth > 0 && b.width > maxWidth {
		return nil, fmt.Errorf("greedy ghd: best width found is %d: %w", b.width, decomp.ErrWidthExceeded)
	}
	return b.D, nil
}

// ForEachShape runs the trial portfolio — per ordering (min-fill,
// min-degree, max-cardinality) one trial per entry of seeds — and hands
// each resulting decomposition, a pruned bag-tree with GreedyCoverCost
// covers under model, to fn. It is the one shape loop: Decompose ranks
// the shapes as built, and the fractional engine (internal/fhd) re-covers
// the same bags with LP-priced weights and ranks them by fractional width.
// A non-nil error from fn aborts the loop and is returned as-is; an
// exhausted budget surfaces as decomp.ErrStepBudget, with every shape
// completed before the cut-off already delivered. budget is charged one
// step per vertex elimination decision.
func ForEachShape(ctx context.Context, h *hypergraph.Hypergraph, model *decomp.CostModel, budget *decomp.Budget, fn func(*decomp.Decomposition) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if h.NumEdges() == 0 {
		return fn(&decomp.Decomposition{H: h})
	}
	g := h.PrimalGraph()
	for _, ord := range []treewidth.Ordering{treewidth.MinFill, treewidth.MinDegree, treewidth.MaxCardinality} {
		for _, seed := range seeds {
			d, err := runTrial(ctx, h, g, ord, seed, model, budget)
			if err != nil {
				return err
			}
			if err := fn(d); err != nil {
				return err
			}
		}
	}
	return nil
}

const prefixLen = 1024 // a walk over a few dozen variables draws under 100

// prefixes maps each restart seed to the first prefixLen values of
// rand.NewSource(seed), so that a trial need not seed a source (which costs
// more than a walk draws); computed once per process and never written
// after.
var prefixes = sync.OnceValue(func() map[int64][]int64 {
	out := map[int64][]int64{}
	for _, seed := range seeds[1:] {
		src, vals := rand.NewSource(seed), make([]int64, prefixLen)
		for i := range vals {
			vals[i] = src.Int63()
		}
		out[seed] = vals
	}
	return out
})

// replay is one randomized trial's tie-break source: it yields exactly
// rand.NewSource(seed)'s values, reading the shared prefix first and, past
// its end, a source of its own, seeded on the first such draw.
type replay struct {
	seed   int64
	prefix []int64 // read-only, shared by every trial of the seed
	pos    int
	src    rand.Source
}

// Int63 returns the seed's next value.
func (r *replay) Int63() int64 {
	if r.pos < len(r.prefix) {
		r.pos++
		return r.prefix[r.pos-1]
	}
	if r.src == nil {
		r.src = rand.NewSource(r.seed)
		for range r.prefix { // the values already read
			r.src.Int63()
		}
	}
	return r.src.Int63()
}

// Seed is never called: a replay starts where its seed's source does.
func (r *replay) Seed(int64) { panic("ghd: a replayed tie-break source cannot be reseeded") }

// runTrial is one pass of the improvement loop: the ordering heuristic,
// breaking ties toward the lowest index for seed 0 and by seed's replay
// otherwise.
func runTrial(ctx context.Context, h *hypergraph.Hypergraph, g *graph.Graph, ord treewidth.Ordering, seed int64, model *decomp.CostModel, budget *decomp.Budget) (*decomp.Decomposition, error) {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(&replay{seed: seed, prefix: prefixes()[seed]})
	}
	order, err := treewidth.EliminationOrder(ctx, g, ord, rng, func() error {
		if budget.Take() {
			return nil
		}
		return budget.Err()
	})
	if err != nil {
		return nil, err
	}
	td, _ := treewidth.FromEliminationOrder(g, order)
	return FromTreeDecompositionCost(h, td, model), nil
}

// FromTreeDecompositionCost converts a tree decomposition of the primal
// graph of h into a GHD: redundant bags (subset of a tree neighbour) are
// contracted, the surviving bags become χ labels, and each χ is covered by a
// greedy minimum set cover of hyperedges to form λ (GreedyCoverCost). The
// result satisfies conditions 1–3 of Definition 4.1 by construction: every
// hyperedge is a primal clique and thus inside some bag (condition 1), bag
// connectedness carries over (condition 2), and the cover guarantees
// χ ⊆ var(λ) (condition 3). A non-nil cost model steers the covers:
// coverage ties break toward the cover of the smaller estimated node table,
// so among the many λ labels of the same size the one that joins — rather
// than multiplies — the smallest relations wins.
func FromTreeDecompositionCost(h *hypergraph.Hypergraph, td *treewidth.Decomposition, model *decomp.CostModel) *decomp.Decomposition {
	bags, parent, root := pruneBags(td)
	if len(bags) == 0 {
		return &decomp.Decomposition{H: h}
	}
	nodes := make([]*decomp.Node, len(bags))
	for i, bag := range bags {
		nodes[i] = &decomp.Node{Chi: bag, Lambda: GreedyCoverCost(h, bag, model)}
	}
	for i, p := range parent {
		if p >= 0 {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		}
	}
	return &decomp.Decomposition{H: h, Root: nodes[root]}
}

// pruneBags contracts tree edges whose endpoint bags are ordered by
// inclusion, repeatedly, so no bag is a subset of a tree neighbour. The
// elimination construction emits one bag per vertex; on real queries most
// are redundant, and fewer nodes mean fewer λ-joins at evaluation time.
func pruneBags(td *treewidth.Decomposition) (bags []bitset.Set, parent []int, root int) {
	n := len(td.Bags)
	bags = make([]bitset.Set, n)
	for i, b := range td.Bags {
		bags[i] = b.Clone()
	}
	parent = append([]int(nil), td.Parent...)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	root = td.Root
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !alive[i] || parent[i] < 0 {
				continue
			}
			p := parent[i]
			switch {
			case bags[i].SubsetOf(bags[p]):
				// drop i, reparent its children to p
				alive[i] = false
				for j := 0; j < n; j++ {
					if alive[j] && parent[j] == i {
						parent[j] = p
					}
				}
				changed = true
			case bags[p].SubsetOf(bags[i]):
				// p's bag is redundant: let i absorb it
				bags[p] = bags[i]
				alive[i] = false
				for j := 0; j < n; j++ {
					if alive[j] && parent[j] == i {
						parent[j] = p
					}
				}
				changed = true
			}
		}
	}
	// compact to the alive nodes
	remap := make([]int, n)
	var outBags []bitset.Set
	for i := 0; i < n; i++ {
		if alive[i] {
			remap[i] = len(outBags)
			outBags = append(outBags, bags[i])
		} else {
			remap[i] = -1
		}
	}
	outParent := make([]int, len(outBags))
	outRoot := 0
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		if parent[i] < 0 {
			outParent[remap[i]] = -1
			outRoot = remap[i]
		} else {
			outParent[remap[i]] = remap[parent[i]]
		}
	}
	return outBags, outParent, outRoot
}

// GreedyCoverCost returns a λ label for the bag: hyperedges chosen by the
// classical greedy set-cover rule (largest uncovered intersection first),
// until the bag is covered. Every bag vertex lies in at least one
// hyperedge, so the cover always completes; the greedy choice is within a
// ln(|bag|)+1 factor of the optimal cover. With a nil model ties go to the
// lowest edge index. A non-nil model breaks them cost-aware: among edges
// covering equally many uncovered bag vertices the greedy pass takes the
// one that minimises decomp.NodeCost of the bag under the cover so far plus
// that edge (then the lowest index) — an edge sharing a variable with the
// cover joins it, one that does not multiplies it, and the estimate tells
// the two apart where the cardinalities alone cannot. Because a cheap early
// pick can occasionally force a *larger* cover later (greedy set cover is
// not exchange-stable), the cost-aware cover is compared against the
// width-only (nil-model) cover and the smaller one wins — ties by size go
// to the lower NodeCost of the finished bag — so the cover size, and hence
// the width, never exceeds the statistics-free result.
func GreedyCoverCost(h *hypergraph.Hypergraph, bag bitset.Set, model *decomp.CostModel) bitset.Set {
	plain := greedyCover(h, bag, nil)
	if model == nil {
		return plain
	}
	costed := greedyCover(h, bag, model)
	cost := func(lambda bitset.Set) float64 {
		return decomp.NodeCost(&decomp.Node{Chi: bag, Lambda: lambda}, model)
	}
	switch {
	case costed.Len() < plain.Len():
		return costed
	case costed.Len() > plain.Len():
		return plain
	case cost(costed) <= cost(plain):
		return costed
	default:
		return plain
	}
}

// greedyCover runs the greedy set-cover pass; a non-nil model switches the
// coverage tie-break from lowest index to lowest estimated node table (then
// lowest index).
func greedyCover(h *hypergraph.Hypergraph, bag bitset.Set, model *decomp.CostModel) bitset.Set {
	// candidate edges: all edges meeting the bag, deduplicated
	var candSet bitset.Set
	bag.ForEach(func(v int) {
		for _, e := range h.EdgesOf(v) {
			candSet.Add(e)
		}
	})
	cands := candSet.Elems()
	uncovered := bag.Clone()
	var lambda bitset.Set
	for !uncovered.Empty() {
		best, bestCov, bestCost := -1, 0, 0.0
		for _, e := range cands {
			if lambda.Has(e) {
				continue
			}
			cov := h.Edge(e).Intersect(uncovered).Len()
			if cov == 0 || cov < bestCov {
				continue
			}
			cost := 0.0
			if model != nil {
				lambda.Add(e)
				cost = decomp.NodeCost(&decomp.Node{Chi: bag, Lambda: lambda}, model)
				lambda.Remove(e)
			}
			if cov > bestCov || cost < bestCost {
				best, bestCov, bestCost = e, cov, cost
			}
		}
		if best < 0 {
			// unreachable for query hypergraphs (every vertex is in an edge);
			// guard against malformed inputs instead of looping forever
			break
		}
		lambda.Add(best)
		uncovered = uncovered.Diff(h.Edge(best))
	}
	return lambda
}
