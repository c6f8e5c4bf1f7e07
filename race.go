package hypertree

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/obs"
)

// DefaultRaceExactBudget is the step budget WithAutoStrategy imposes on the
// exact k-decomp engine when the caller set none: the exact search is
// exponential in the width, so an unbudgeted entrant would let a single
// hard instance stall the compile. The heuristic walk is polynomial and
// runs unbudgeted unless the caller says otherwise. 200k steps decide
// the structured families (cycles, grids, small cliques) exactly and give
// up within milliseconds on the instances only the heuristics can serve —
// the budget TestCostBasedAutoBeatsWidthOnly and BenchmarkE25CostBased
// give the race, capped or not.
const DefaultRaceExactBudget = 200_000

// costTieRel is the relative tolerance under which two entrants' estimated
// total costs count as a tie in the cost-based race, letting the fractional
// width (and then the guarantee order) break it. 1e-4 comfortably absorbs
// the simplex epsilon noise in LP cover weights (r^0.999999 vs r) while
// staying far below any genuine plan-cost separation.
const costTieRel = 1e-4

// raceCandidate is one decomposition the race ranks: its engine, result
// and timing, and the figures it is ranked and labelled by.
type raceCandidate struct {
	name        string
	generalized bool
	fractional  bool
	d           *Decomposition
	err         error
	started     time.Time
	elapsed     time.Duration
	fw, cost    float64
	maxK        int // the exact entrant's width cap; 0 = uncapped
}

// raceDecomposers runs one walk of the greedy shape portfolio on h
// (fhd.DecomposeWithGreedy, which yields both the fhd and the ghd
// candidate), then the exact engine, and picks the winner. Without statistics
// the ranking is by achieved fractional width (the evaluation-cost
// exponent — by the AGM bound a node table holds at most r^fw tuples),
// ties broken by guarantee strength in the fixed order exact > fhd > ghd. With statistics (req.Cost non-nil) the ranking is by
// estimated total evaluation cost — Σ over nodes of the estimated node
// table (decomp.NodeCost: the join-size estimate from the relations'
// cardinalities and distinct counts, capped by the AGM bound) — with ties
// broken by fractional width and then guarantee strength; both entrants
// receive the statistics, so the heuristics surface their cheapest
// same-width candidates for the race to judge (the exact search is
// untouched: it returns the first decomposition of minimum width it finds,
// and only its price changes). Both entrants observe ctx and a step
// budget, so the race always terminates: the exact engine gets
// req.StepBudget or DefaultRaceExactBudget, the heuristic walk
// req.StepBudget as given, shared by its two candidates. Candidates that
// fail (budget, width bound, width cap, or any other reason) simply drop
// out; if all fail, the joined errors surface.
func raceDecomposers(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*raceCandidate, error) {
	return rankRace(ctx, runRace(ctx, h, req), req.Cost)
}

// runRace returns the candidates in guarantee order; the heuristic two
// carry their shared walk's timing. The exact HD has fw = hw (nil weights)
// and wins ties, so ranked by width it can only win at hw ≤ ⌊fw(walk)⌋:
// without statistics or a width bound its search stops after that level,
// which moves no winner. A cost model can crown a wider HD, and a width
// bound makes the search a decision, so both run uncapped.
func runRace(ctx context.Context, h *Hypergraph, req DecomposeRequest) []raceCandidate {
	cands := []raceCandidate{
		{name: KDecomposer().Name()},
		{name: FractionalDecomposer().Name(), generalized: true, fractional: true},
		{name: GreedyDecomposer().Name(), generalized: true},
	}
	started := time.Now()
	frac, greedy := fhd.DecomposeWithGreedy(ctx, h, req.Cost, req.MaxWidth, req.StepBudget)
	elapsed := time.Since(started)
	c := &cands[0]
	for i, r := range []fhd.Candidate{frac, greedy} {
		w := &cands[1+i]
		w.d, w.err, w.started, w.elapsed = r.D, r.Err, started, elapsed
		if r.Err == nil && r.D != nil && req.Cost == nil && req.MaxWidth == 0 {
			if k := int(r.D.FractionalWidth() + decomp.FracEps); c.maxK == 0 || k < c.maxK {
				c.maxK = k
			}
		}
	}
	exactReq := req
	exactReq.StepBudget = cmp.Or(req.StepBudget, DefaultRaceExactBudget)
	c.started = time.Now()
	c.d, c.err = kDecomposer{maxK: c.maxK}.Decompose(ctx, h, exactReq)
	c.elapsed = time.Since(c.started)
	return cands
}

// rankRace picks the winner as raceDecomposers describes and traces one
// span per candidate.
func rankRace(ctx context.Context, cands []raceCandidate, model *CostModel) (*raceCandidate, error) {
	win := -1
	for i := range cands {
		c := &cands[i]
		if c.err != nil || c.d == nil {
			continue
		}
		c.fw = c.d.FractionalWidth()
		if model == nil {
			if win < 0 || c.fw < cands[win].fw-decomp.FracEps {
				win = i
			}
			continue
		}
		// Cost-based ranking: lower estimated total cost wins; within the
		// relative tie band the lower fractional width (then the candidate
		// order's guarantee strength) decides. The band must be relative —
		// costs span many orders of magnitude, and the LP candidate's
		// float-dust weights (0.999999·w) shave absolute amounts far above
		// any fixed epsilon, which would make the width/guarantee fallback
		// unreachable.
		c.cost = c.d.CostWith(model)
		if win < 0 || c.cost < cands[win].cost*(1-costTieRel) ||
			(c.cost < cands[win].cost*(1+costTieRel) && c.fw < cands[win].fw-decomp.FracEps) {
			win = i
		}
	}
	// Trace the candidates only now that the verdict is known: a span per
	// candidate with its achieved width (and cost under statistics) and the
	// win/lose outcome, timed by the entrant that produced it. Spans are
	// assembled after the fact via Trace.Observe because win/lose cannot be
	// labelled until every entrant has reported.
	if tr := obs.FromContext(ctx); tr != nil {
		for i, c := range cands {
			label := c.name
			switch {
			case c.maxK > 0 && errors.Is(c.err, decomp.ErrWidthExceeded):
				label += fmt.Sprintf(" hw>%d (capped at ⌊fhw⌋)", c.maxK)
			case c.err != nil:
				label += fmt.Sprintf(" error: %v", c.err)
			case c.d == nil:
				label += " no decomposition"
			default:
				label += fmt.Sprintf(" width=%d fhw=%.4g", c.d.Width(), c.fw)
				if model != nil {
					label += fmt.Sprintf(" cost=%.4g", c.cost)
				}
			}
			if i == win {
				label += " [win]"
			} else {
				label += " [lose]"
			}
			tr.Observe(obs.Span{
				Name:        obs.SpanRace,
				Label:       label,
				Node:        -1,
				Rows:        -1,
				StartMicros: tr.OffsetMicros(c.started),
				Micros:      c.elapsed.Microseconds(),
			})
		}
	}
	if win < 0 {
		errs := make([]error, 0, len(cands))
		for _, c := range cands {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, c.err))
		}
		return nil, fmt.Errorf("hypertree: every raced decomposer failed: %w", errors.Join(errs...))
	}
	return &cands[win], nil
}
