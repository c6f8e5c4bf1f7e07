package hypertree

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hypertree/internal/decomp"
	"hypertree/internal/obs"
)

// DefaultRaceExactBudget is the step budget WithAutoStrategy imposes on the
// exact k-decomp engine when the caller set none: the exact search is
// exponential in the width, so an unbudgeted entrant would let a single
// hard instance stall the whole race. The heuristic engines are polynomial
// and run unbudgeted unless the caller says otherwise. 200k steps decide
// the structured families (cycles, grids, small cliques) exactly and give
// up within milliseconds on the instances only the heuristics can serve —
// the same scale hdbench E22 uses.
const DefaultRaceExactBudget = 200_000

// costTieRel is the relative tolerance under which two entrants' estimated
// total costs count as a tie in the cost-based race, letting the fractional
// width (and then the guarantee order) break it. 1e-4 comfortably absorbs
// the simplex epsilon noise in LP cover weights (r^0.999999 vs r) while
// staying far below any genuine plan-cost separation.
const costTieRel = 1e-4

// raceEntrant is one engine in the adaptive-strategy race.
type raceEntrant struct {
	dec         Decomposer
	budget      int
	generalized bool
	fractional  bool
}

// raceOutcome is the winning entrant's result.
type raceOutcome struct {
	name        string
	dec         *Decomposition
	generalized bool
	fractional  bool
}

// raceDecomposers runs the exact, fractional and greedy engines
// concurrently on h and picks the winner. Without statistics the ranking is
// by achieved fractional width (the evaluation-cost exponent — by the AGM
// bound a node table holds at most r^fw tuples), ties broken by guarantee
// strength in the fixed order exact > fhd > ghd. With statistics
// (req.Cost non-nil) the ranking is by estimated total evaluation cost — Σ
// over nodes of the estimated node table (decomp.NodeCost: the join-size
// estimate from the relations' cardinalities and distinct counts, capped by
// the AGM bound) — with ties broken by fractional width and then guarantee
// strength; each entrant also receives the statistics, so the heuristics
// surface their cheapest same-width candidates for the race to judge (the
// exact search is untouched: it returns the first decomposition of minimum
// width it finds, and only its price changes). Every entrant observes ctx
// and its own step budget, so the race always terminates: the exact engine
// gets req.StepBudget or DefaultRaceExactBudget, the polynomial heuristics
// req.StepBudget as given. Entrants that fail (budget, width bound, or any
// other reason) simply drop out; if all fail, the joined errors surface.
func raceDecomposers(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*raceOutcome, error) {
	exact := KDecomposer()
	if req.Workers > 1 {
		exact = ParallelKDecomposer()
	}
	exactBudget := req.StepBudget
	if exactBudget == 0 {
		exactBudget = DefaultRaceExactBudget
	}
	entrants := []raceEntrant{
		{dec: exact, budget: exactBudget},
		{dec: FractionalDecomposer(), budget: req.StepBudget, generalized: true, fractional: true},
		{dec: GreedyDecomposer(), budget: req.StepBudget, generalized: true},
	}

	type result struct {
		d       *Decomposition
		err     error
		started time.Time
		elapsed time.Duration
	}
	results := make([]result, len(entrants))
	var wg sync.WaitGroup
	for i, e := range entrants {
		wg.Add(1)
		go func(i int, e raceEntrant) {
			defer wg.Done()
			r := req
			r.StepBudget = e.budget
			started := time.Now()
			d, err := e.dec.Decompose(ctx, h, r)
			results[i] = result{d: d, err: err, started: started, elapsed: time.Since(started)}
		}(i, e)
	}
	wg.Wait()

	win := -1
	winFW, winCost := 0.0, 0.0
	for i, r := range results {
		if r.err != nil || r.d == nil {
			continue
		}
		fw := r.d.FractionalWidth()
		switch {
		case req.Cost != nil:
			// Cost-based ranking: lower estimated total cost wins; within
			// the relative tie band the lower fractional width (then the
			// entrant order's guarantee strength) decides. The band must be
			// relative — costs span many orders of magnitude, and the LP
			// entrant's float-dust weights (0.999999·w) shave absolute
			// amounts far above any fixed epsilon, which would make the
			// width/guarantee fallback unreachable.
			cost := r.d.CostWith(req.Cost)
			if win < 0 || cost < winCost*(1-costTieRel) ||
				(cost < winCost*(1+costTieRel) && fw < winFW-decomp.FracEps) {
				win, winFW, winCost = i, fw, cost
			}
		default:
			if win < 0 || fw < winFW-decomp.FracEps {
				win, winFW = i, fw
			}
		}
	}
	// Trace the entrants only now that the verdict is known: a span per
	// engine with its achieved width (and cost under statistics) and the
	// win/lose outcome, timed from inside its goroutine. Spans are
	// assembled after the fact via Trace.Observe because win/lose cannot be
	// labelled until every entrant has reported.
	if tr := obs.FromContext(ctx); tr != nil {
		for i, r := range results {
			label := entrants[i].dec.Name()
			switch {
			case r.err != nil:
				label += fmt.Sprintf(" error: %v", r.err)
			case r.d == nil:
				label += " no decomposition"
			default:
				label += fmt.Sprintf(" width=%d fhw=%.4g", r.d.Width(), r.d.FractionalWidth())
				if req.Cost != nil {
					label += fmt.Sprintf(" cost=%.4g", r.d.CostWith(req.Cost))
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
				Shard:       -1,
				Rows:        -1,
				StartMicros: tr.OffsetMicros(r.started),
				Micros:      r.elapsed.Microseconds(),
			})
		}
	}
	if win < 0 {
		errs := make([]error, 0, len(entrants))
		for i, r := range results {
			errs = append(errs, fmt.Errorf("%s: %w", entrants[i].dec.Name(), r.err))
		}
		return nil, fmt.Errorf("hypertree: every raced decomposer failed: %w", errors.Join(errs...))
	}
	return &raceOutcome{
		name:        entrants[win].dec.Name(),
		dec:         results[win].d,
		generalized: entrants[win].generalized,
		fractional:  entrants[win].fractional,
	}, nil
}
