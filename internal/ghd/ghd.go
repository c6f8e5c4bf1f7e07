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
// An improvement loop tries every configured ordering plus randomized
// tie-breaking restarts and keeps the smallest width found. The loop runs
// under the same context/step-budget plumbing as the exact searches: one
// step is one vertex elimination decision, and an exhausted budget returns
// the best decomposition found so far (or ErrStepBudget if none completed).
// Unlike the exact k-decomp search the runtime is polynomial — O(trials ·
// n²·d) rather than exponential in the width bound — at the price of width
// optimality.
package ghd

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/graph"
	"hypertree/internal/hypergraph"
	"hypertree/internal/treewidth"
)

// Ordering selects a greedy vertex-ordering heuristic over the primal graph.
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
	// order — exact on chordal primal graphs.
	MaxCardinality
)

// String names the ordering for diagnostics.
func (o Ordering) String() string {
	switch o {
	case MinFill:
		return "min-fill"
	case MinDegree:
		return "min-degree"
	case MaxCardinality:
		return "max-cardinality"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// DefaultOrderings is the ordering portfolio tried when none is configured.
var DefaultOrderings = []Ordering{MinFill, MinDegree, MaxCardinality}

// DefaultRestarts is the number of randomized-tie-break repetitions of each
// ordering tried in addition to the deterministic first pass.
const DefaultRestarts = 2

// Options tunes the improvement loop. The zero value selects the default
// portfolio (all three orderings, DefaultRestarts randomized restarts each,
// seed 1).
type Options struct {
	// Orderings is the set of heuristics to try; nil means DefaultOrderings.
	Orderings []Ordering
	// Restarts is the number of additional randomized-tie-break passes per
	// ordering; < 0 disables restarts entirely (deterministic passes only).
	Restarts int
	// Seed drives the randomized tie-breaking; 0 means seed 1 so results are
	// reproducible by default.
	Seed int64
	// Cost, when non-nil, is the compilation's cost model (derived from an
	// internal/stats snapshot) and switches the engine cost-aware:
	// GreedyCoverCost breaks coverage ties toward the cover whose node table is
	// estimated smallest, and ties between equal-width trials go to the
	// decomposition of lower total estimated cost (decomp.CostWith) instead
	// of the lower trial index. Statistics never change the width contract
	// — only which same-width decomposition wins. Cost does not participate
	// in decomposer names; plan caches key statistics by their fingerprint
	// instead.
	Cost *decomp.CostModel
}

func (o Options) orderings() []Ordering {
	if len(o.Orderings) == 0 {
		return DefaultOrderings
	}
	return o.Orderings
}

func (o Options) restarts() int {
	if o.Restarts < 0 {
		return 0
	}
	if o.Restarts == 0 {
		return DefaultRestarts
	}
	return o.Restarts
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Decompose runs the greedy improvement loop on h and returns the best GHD
// found. maxWidth > 0 bounds the accepted width — since the heuristic cannot
// prove non-existence, ErrWidthExceeded then only means "no trial reached
// the bound". stepBudget > 0 bounds the cumulative number of vertex
// elimination decisions across all trials; when it runs out the best
// decomposition found so far is returned, or ErrStepBudget if no trial
// completed. workers > 1 runs trials concurrently; the orderings'
// restarts share the seeds seed+1 … seed+R (one stream per seed), so a
// trial's tie-breaks depend on its seed alone, and ties between
// equal-width trials go to the lowest trial index — or, when opts.Cost
// supplies statistics, to the trial of lowest
// total estimated cost (a width bound then no longer cuts the loop short:
// remaining trials still compete on cost) — so without a step budget or
// width bound the result is identical to the sequential one. With
// stepBudget or maxWidth set, both loops stop early, and which trials
// complete before the cut-off may differ between
// sequential and parallel execution (and, under a budget, between runs) —
// the returned decomposition always satisfies the same contract, but its
// width may differ.
func Decompose(ctx context.Context, h *hypergraph.Hypergraph, opts Options, maxWidth, stepBudget, workers int) (*decomp.Decomposition, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if h.NumEdges() == 0 {
		return &decomp.Decomposition{H: h}, nil
	}
	g := h.PrimalGraph()
	trials := trialPlan(opts)

	budget := NewBudget(stepBudget)
	best := Best{Model: opts.Cost}
	if workers > len(trials) {
		workers = len(trials)
	}
	if workers <= 1 {
		for _, tr := range trials {
			d, err := runTrial(ctx, h, g, tr, opts.Cost, budget)
			if err != nil {
				if err == decomp.ErrStepBudget {
					break // keep what earlier trials produced
				}
				return nil, err
			}
			best.Offer(d)
			if maxWidth > 0 && d.Width() <= maxWidth && opts.Cost == nil {
				break // a satisfying decomposition: no need to improve further
			}
		}
	} else {
		results := make([]*decomp.Decomposition, len(trials))
		if err := runParallel(ctx, h, g, trials, budget, results, workers, maxWidth, opts.Cost); err != nil {
			return nil, err
		}
		for _, d := range results {
			if d != nil {
				best.Offer(d)
			}
		}
	}
	return best.Result(ctx, maxWidth)
}

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

// ForEachShape runs the configured trial portfolio sequentially and hands
// each resulting decomposition — a pruned bag-tree with greedy covers — to
// fn. It is the shape-enumeration hook behind the fractional engine
// (internal/fhd), which re-covers the same bags with LP-priced fractional
// weights and ranks shapes by fractional rather than integral width. A
// non-nil error from fn aborts the loop and is returned as-is; an exhausted
// budget surfaces as decomp.ErrStepBudget, with every shape completed
// before the cut-off already delivered.
func ForEachShape(ctx context.Context, h *hypergraph.Hypergraph, opts Options, budget *Budget, fn func(*decomp.Decomposition) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if h.NumEdges() == 0 {
		return fn(&decomp.Decomposition{H: h})
	}
	g := h.PrimalGraph()
	for _, tr := range trialPlan(opts) {
		d, err := runTrial(ctx, h, g, tr, opts.Cost, budget)
		if err != nil {
			return err
		}
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

// trial is one pass of the improvement loop: an ordering heuristic plus,
// for randomized restarts, the tie-breaking stream of its seed (the first
// pass per ordering uses deterministic lowest-index tie-breaking instead).
type trial struct {
	ordering Ordering
	stream   *stream
}

func trialPlan(opts Options) []trial {
	streams := make([]*stream, opts.restarts())
	for r := range streams {
		seed := opts.seed() + int64(r+1)
		streams[r] = &stream{seed: seed, vals: defaultPrefixes()[seed]}
	}
	var trials []trial
	for _, ord := range opts.orderings() {
		trials = append(trials, trial{ordering: ord})
		for _, s := range streams {
			trials = append(trials, trial{ordering: ord, stream: s})
		}
	}
	return trials
}

const prefixLen = 1024 // a walk over a few dozen variables draws under 100

// defaultPrefixes maps the default Options' restart seeds to the first
// prefixLen values of rand.NewSource(seed), so that their streams need not
// seed a source (which costs more than a walk draws); computed once per
// process and never written after.
var defaultPrefixes = sync.OnceValue(func() map[int64][]int64 {
	prefixes := map[int64][]int64{}
	for r := int64(1); r <= DefaultRestarts; r++ {
		seed := Options{}.seed() + r
		src, vals := rand.NewSource(seed), make([]int64, prefixLen)
		for i := range vals {
			vals[i] = src.Int63()
		}
		prefixes[seed] = vals
	}
	return prefixes
})

// stream is one restart seed's tie-break sequence, shared by every
// ordering's restart with that seed: seeded once, on the first draw past its
// default prefix (if any), and recorded, so each trial replays exactly
// rand.NewSource(seed)'s values. The mutex lets runParallel's workers share it.
type stream struct {
	mu   sync.Mutex
	seed int64
	src  rand.Source
	vals []int64 // a shared prefix until the first append copies it
}

// replay is one trial's read position in a stream, as a rand.Source.
type replay struct {
	s   *stream
	pos int
}

// Int63 returns the stream's next value for this trial.
func (r *replay) Int63() int64 {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.pos == len(s.vals) {
		if s.src == nil {
			s.src = rand.NewSource(s.seed)
			for range s.vals { // the prefix it started with
				s.src.Int63()
			}
		}
		s.vals = append(s.vals, s.src.Int63())
	}
	r.pos++
	return s.vals[r.pos-1]
}

// Seed is never called: a replayed stream starts where its seed's does.
func (r *replay) Seed(int64) { panic("ghd: a replayed tie-break stream cannot be reseeded") }

func runTrial(ctx context.Context, h *hypergraph.Hypergraph, g *graph.Graph, tr trial, model *decomp.CostModel, budget *Budget) (*decomp.Decomposition, error) {
	var rng *rand.Rand
	if tr.stream != nil {
		rng = rand.New(&replay{s: tr.stream})
	}
	order, err := eliminationOrder(ctx, g, tr.ordering, rng, budget)
	if err != nil {
		return nil, err
	}
	td, _ := treewidth.FromEliminationOrder(g, order)
	return FromTreeDecompositionCost(h, td, model), nil
}

// runParallel distributes trials over workers. Results land in their trial
// slot so the ranking is deterministic given the set of completed trials; a
// satisfied maxWidth or an exhausted budget stops further trials from being
// handed out (in-flight ones finish and still count).
func runParallel(ctx context.Context, h *hypergraph.Hypergraph, g *graph.Graph, trials []trial, budget *Budget, results []*decomp.Decomposition, workers, maxWidth int, model *decomp.CostModel) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				abort := firstErr != nil
				mu.Unlock()
				if abort || i >= len(trials) {
					return
				}
				d, err := runTrial(ctx, h, g, trials[i], model, budget)
				mu.Lock()
				switch {
				case err == decomp.ErrStepBudget:
					next = len(trials) // stop handing out trials, keep results
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				default:
					results[i] = d
					if maxWidth > 0 && d.Width() <= maxWidth && model == nil {
						// satisfying width: stop improving (with statistics the
						// remaining trials still compete on cost, so run them)
						next = len(trials)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Budget is the shared, goroutine-safe step counter of the heuristic
// engines: one Take per vertex-elimination decision here, and — through
// lp.Problem.Step — one per simplex pivot in the fractional re-covering
// pass of internal/fhd. limit 0 means unlimited.
type Budget struct {
	mu    sync.Mutex
	used  int
	limit int
}

// NewBudget returns a budget of the given limit (≤ 0 = unlimited).
func NewBudget(limit int) *Budget { return &Budget{limit: limit} }

// Take consumes one step and reports whether the budget still allows it.
func (s *Budget) Take() bool {
	if s.limit <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used >= s.limit {
		return false
	}
	s.used++
	return true
}

// eliminationOrder computes a full elimination order of g under the given
// heuristic. rng != nil breaks score ties uniformly at random; rng == nil
// picks the lowest-index vertex. Every vertex selection consumes one budget
// step and observes ctx.
func eliminationOrder(ctx context.Context, g *graph.Graph, ord Ordering, rng *rand.Rand, budget *Budget) ([]int, error) {
	if ord == MaxCardinality {
		return mcsOrder(ctx, g, rng, budget)
	}
	n := g.N()
	adj := make([]bitset.Set, n)
	for v := 0; v < n; v++ {
		adj[v] = g.Neighbors(v).Clone()
	}
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
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !budget.Take() {
			return nil, decomp.ErrStepBudget
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

// mcsOrder runs maximal-cardinality search on the original graph (no fill
// simulation: MCS scores count visited neighbours) and returns the reverse
// visit order, which is the elimination order MCS induces.
func mcsOrder(ctx context.Context, g *graph.Graph, rng *rand.Rand, budget *Budget) ([]int, error) {
	n := g.N()
	visited := make([]bool, n)
	weight := make([]int, n)
	visit := make([]int, 0, n)
	unvisited := make([]bool, n)
	for i := range unvisited {
		unvisited[i] = true
	}
	for len(visit) < n {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !budget.Take() {
			return nil, decomp.ErrStepBudget
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
