// Package fhd computes fractional hypertree decompositions: the width
// measure of Grohe & Marx refined by Fischl, Gottlob & Pichler ("General
// and Fractional Hypertree Decompositions: Hard and Easy Cases"), where
// each bag is covered by a *fractional* combination of hyperedges instead
// of an integral set. Fractional covers are strictly more permissive —
// fhw(H) ≤ ghw(H) ≤ hw(H), with the gap realised already by small cliques
// (fhw(K5) = 5/2 against ghw = 3) — while preserving tractability: by the
// AGM bound, the projection of the full join onto a bag χ has at most
// r^ρ*(χ) tuples for the optimal fractional cover value ρ*(χ), so node
// tables stay polynomial for bounded fhw exactly as Lemma 4.6 needs.
//
// The engine reuses the greedy tree shapes of internal/ghd (elimination
// orderings over the primal graph, pruned bags) and re-prices every bag by
// a covering LP over the incident hyperedges (internal/lp, one LP per
// distinct bag of the portfolio), keeping the shape of minimum *fractional*
// width (DecomposeWithGreedy also ranks the shapes as built, for the auto
// race's greedy candidate). The λ label of
// each node is the integral support of its optimal fractional cover —
// still a valid edge cover of the bag — so the decomposition satisfies the
// GHD conditions 1–3 and the existing Lemma 4.6 evaluator runs completely
// unchanged; only the width accounting is fractional. Everything runs under the shared context/step-budget
// plumbing: one step per vertex-elimination decision and one per simplex
// pivot.
package fhd

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/ghd"
	"hypertree/internal/hypergraph"
	"hypertree/internal/lp"
)

// Cover computes a minimum fractional edge cover of the bag by the
// hypergraph's edges: minimise Σ_e x_e subject to Σ_{e ∋ v} x_e ≥ 1 for
// every v ∈ bag, x ≥ 0, over the edges that intersect the bag (no other
// edge can help). It returns the sparse weight map (support only) and the
// cover value ρ*(bag). budget, when non-nil, is charged one step per
// simplex pivot; exhaustion surfaces as decomp.ErrStepBudget. An empty bag
// has cover 0.
func Cover(ctx context.Context, h *hypergraph.Hypergraph, bag bitset.Set, budget *ghd.Budget) (map[int]float64, float64, error) {
	verts := bag.Elems()
	if len(verts) == 0 {
		return nil, 0, nil
	}
	// Candidate edges: every edge meeting the bag, in increasing index
	// order (bitset iteration), so the LP — and with it the support and the
	// reported weights — is deterministic.
	var candSet bitset.Set
	for _, v := range verts {
		for _, e := range h.EdgesOf(v) {
			candSet.Add(e)
		}
	}
	cands := candSet.Elems()
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("fhd: bag %v touches no edge", h.VertexNames(bag))
	}

	c := make([]float64, len(cands))
	for i := range c {
		c[i] = 1
	}
	p := lp.Minimize(c...)
	if budget != nil {
		p.Step = budget.Take
	}
	for _, v := range verts {
		row := make([]float64, len(cands))
		for i, e := range cands {
			if h.Edge(e).Has(v) {
				row[i] = 1
			}
		}
		p.Constrain(lp.GE, 1, row...)
	}
	sol, err := p.Solve(ctx)
	switch {
	case errors.Is(err, lp.ErrPivotBudget):
		return nil, 0, decomp.ErrStepBudget
	case err != nil:
		// Infeasible/unbounded cannot occur: weight 1 on every candidate is
		// feasible (each bag vertex lies in some candidate edge) and the
		// objective is bounded below by 0. Surface solver trouble verbatim.
		return nil, 0, fmt.Errorf("fhd: cover LP: %w", err)
	}

	weights := make(map[int]float64)
	for i, x := range sol.X {
		if x > supportEps {
			weights[cands[i]] = x
		}
	}
	// The support of an optimal cover is itself an (integral) edge cover of
	// the bag: every vertex needs total weight ≥ 1, so some incident edge
	// carries weight ≥ 1/|candidates| ≫ supportEps. Guard against float
	// dust anyway — evaluation correctness rides on χ ⊆ var(λ).
	for _, v := range verts {
		covered := false
		for e := range weights {
			if h.Edge(e).Has(v) {
				covered = true
				break
			}
		}
		if !covered {
			best, bestW := -1, 0.0
			for i, e := range cands {
				if h.Edge(e).Has(v) && (best < 0 || sol.X[i] > bestW) {
					best, bestW = e, sol.X[i]
				}
			}
			// weight 1 keeps both the integral and the fractional cover
			// conditions intact on this unreachable-in-theory repair path
			weights[best] = 1
		}
	}
	return weights, sol.Objective, nil
}

// supportEps separates genuine cover weights from float dust when reading
// the LP solution's support. It must stay well below 1/|edges of any bag|.
const supportEps = 1e-7

// WidthOf computes the fractional hypertree width of the decomposition's
// tree shape: the maximum over nodes of the minimum fractional edge cover
// of χ(p), one LP per bag. The existing λ labels are ignored — this is the
// best fractional width the given tree can achieve, a lower bound on (and
// for fhd-produced decompositions equal to) its achieved FractionalWidth.
func WidthOf(ctx context.Context, d *decomp.Decomposition) (float64, error) {
	w := 0.0
	for _, n := range d.Nodes() {
		_, v, err := Cover(ctx, d.H, n.Chi, nil)
		if err != nil {
			return 0, err
		}
		if v > w {
			w = v
		}
	}
	return w, nil
}

// Decompose runs the fractional engine: the greedy tree shapes of
// internal/ghd (its whole ordering/restart portfolio), every bag
// re-covered by its optimal fractional cover, keeping the shape of minimum
// fractional width. The returned decomposition carries per-node Weights
// (validated by decomp.ValidateFractional) and integral support λ labels,
// so it is simultaneously a valid GHD. maxWidth > 0 bounds the accepted
// *fractional* width; since the tree shapes are heuristic, ErrWidthExceeded
// means "no shape reached the bound", not a proof about fhw(H).
// stepBudget > 0 bounds elimination decisions plus simplex pivots across
// all shapes; when it runs out the best complete shape found so far is
// returned, or decomp.ErrStepBudget if none finished. model, when set,
// decides what the width leaves open and nothing else — the width contract
// is unchanged: fractional-width ties between shapes break toward the
// lower total estimated cost, and a bag whose ρ* an integral cover already
// attains keeps the shape's cost-aware integral cover at weights 1 instead
// of whichever optimal vertex the LP happened to return (on a bag
// {X2,X3,X4} of a 4-cycle the LP is as happy with the product r1 + r3 as
// with the join r2 + r3).
func Decompose(ctx context.Context, h *hypergraph.Hypergraph, model *decomp.CostModel, maxWidth, stepBudget int) (*decomp.Decomposition, error) {
	frac, _ := walk(ctx, h, model, maxWidth, stepBudget, false)
	return frac.D, frac.Err
}

// Candidate is one engine's answer from a walk of the shape portfolio: a
// decomposition, or the error that kept the engine from one.
type Candidate struct {
	D   *decomp.Decomposition
	Err error
}

// DecomposeWithGreedy answers for two engines from one walk of the shape
// portfolio: frac is what Decompose returns, greedy what ghd.Decompose
// returns — each shape as built, ranked by ghd.Best and kept before the LP
// pass re-covers it. Each keeps its own stop rule under maxWidth; they
// share stepBudget, so both equal the standalone engines' results whenever
// the budget does not run out.
func DecomposeWithGreedy(ctx context.Context, h *hypergraph.Hypergraph, model *decomp.CostModel, maxWidth, stepBudget int) (frac, greedy Candidate) {
	return walk(ctx, h, model, maxWidth, stepBudget, true)
}

// walk runs the shape portfolio once for the fractional candidate and,
// withGreedy, the greedy one. Bags recur across the shapes, so Cover is
// memoised by χ for the walk: a hit charges no pivots, and each node gets
// its own copy of the weights.
func walk(ctx context.Context, h *hypergraph.Hypergraph, model *decomp.CostModel, maxWidth, stepBudget int, withGreedy bool) (frac, greedy Candidate) {
	budget := ghd.NewBudget(stepBudget)
	type cover struct {
		weights map[int]float64
		value   float64
	}
	memo := map[string]cover{}
	var best *decomp.Decomposition
	bestFW := math.Inf(1)
	bestCost := math.Inf(1)
	g := ghd.Best{Model: model}
	fracOn, greedyOn := true, withGreedy
	err := ghd.ForEachShape(ctx, h, model, budget, func(d *decomp.Decomposition) error {
		if greedyOn {
			if g.Offer(d) && fracOn {
				g.D = d.Clone() // the LP pass below rewrites d's labels
			}
			greedyOn = !g.Done(maxWidth)
		}
		if fracOn {
			fw := 0.0
			for _, n := range d.Nodes() {
				key := n.Chi.Key()
				c, ok := memo[key]
				if !ok {
					weights, v, err := Cover(ctx, h, n.Chi, budget)
					if err != nil {
						return err
					}
					c = cover{weights, v}
					memo[key] = c
				}
				vertex := &decomp.Node{Chi: n.Chi, Weights: c.weights} // the LP's optimum and its support
				for e := range c.weights {
					vertex.Lambda.Add(e)
				}
				// Where the shape's λ — ghd.GreedyCoverCost of the bag —
				// attains ρ*, it stays, at weights 1, unless the LP's vertex
				// happens to be cheaper still.
				integral := model != nil && math.Abs(float64(n.Lambda.Len())-c.value) <= decomp.FracEps
				if integral {
					n.Weights = make(map[int]float64, n.Lambda.Len())
					n.Lambda.ForEach(func(e int) { n.Weights[e] = 1 })
				}
				if !integral || decomp.NodeCost(vertex, model) < decomp.NodeCost(n, model) {
					n.Lambda, n.Weights = vertex.Lambda, maps.Clone(c.weights)
				}
				fw = max(fw, c.value)
			}
			// Shapes compete on fractional width; with statistics, ties
			// within FracEps break to the lower total estimated cost
			// (decomp.CostWith) — equal-fhw shapes can place wildly
			// different relations in their λ supports.
			cost := math.Inf(1)
			if model != nil {
				cost = d.CostWith(model)
			}
			better := fw < bestFW-decomp.FracEps ||
				(model != nil && fw < bestFW+decomp.FracEps && cost < bestCost)
			if better {
				best, bestFW, bestCost = d, fw, cost
				// satisfying width: stop improving
				fracOn = !(maxWidth > 0 && fw <= float64(maxWidth)+decomp.FracEps && model == nil)
			}
		}
		if !fracOn && !greedyOn {
			return errShapeFound
		}
		return nil
	})
	switch {
	case err != nil && !errors.Is(err, errShapeFound) && !errors.Is(err, decomp.ErrStepBudget):
		// anything but a full portfolio, satisfying shapes or a budget that
		// died mid-portfolio (each candidate keeps its best complete shape)
		return Candidate{Err: err}, Candidate{Err: err}
	case best == nil:
		frac.Err = decomp.ErrStepBudget
	case maxWidth > 0 && bestFW > float64(maxWidth)+decomp.FracEps:
		frac.Err = fmt.Errorf("fhd: best fractional width found is %.3g: %w", bestFW, decomp.ErrWidthExceeded)
	default:
		frac.D = best
	}
	if withGreedy {
		greedy.D, greedy.Err = g.Result(ctx, maxWidth)
	}
	return frac, greedy
}

// errShapeFound is the internal sentinel that stops the shape loop once
// every candidate holds a width-satisfying decomposition.
var errShapeFound = errors.New("fhd: satisfying shape found")
