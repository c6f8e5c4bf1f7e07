package hypertree

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/gen"
)

// The race's fractional and greedy candidates come from one shared walk of
// the greedy shape portfolio. Whenever no step budget runs out that walk
// must hand the race exactly what the standalone FractionalDecomposer and
// GreedyDecomposer return, and the race must crown the winner of every
// engine run on its own, the exact one uncapped, ranked by the rule below:
// the exact entrant either equals the uncapped engine or certifies, capped
// at the walk's ⌊fhw⌋, that the uncapped one would have lost. The corpus is cycles, grids, cliques, classCn and random queries
// and CSPs; each runs without statistics, with random statistics, and with
// decoy statistics that let the greedy candidate win; at workers 1 and 4
// and at width bounds 0, 2 and 3. A greedy candidate read after the LP pass
// re-covered its shape fails both the candidate check (its λ and weights
// are the LP's) and, where ghd should win, the winner check.
func TestRaceMatchesStandaloneEngines(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(307))
	queries := []*Query{
		gen.Cycle(3), gen.Cycle(4), gen.Cycle(5), gen.Cycle(7),
		gen.Grid(2, 3), gen.Grid(3, 3),
		gen.CliqueBinary(4), gen.CliqueBinary(5), gen.CliqueBinary(6),
		gen.ClassCn(3), gen.ClassCn(4),
	}
	for i := 0; i < 6; i++ {
		queries = append(queries,
			gen.RandomQuery(rng, 3+rng.Intn(4), 3+rng.Intn(4), 1+rng.Intn(3)),
			gen.RandomCSP(rng, 4+rng.Intn(4), 6+rng.Intn(5), 3))
	}
	wins, certificates := map[string]int{}, 0
	for qi, q := range queries {
		h := QueryHypergraph(q)
		if h.NumEdges() == 0 {
			continue
		}
		for _, stats := range []string{"none", "random", "decoy"} {
			model := raceTestModel(rng, h, stats)
			for _, workers := range []int{1, 4} {
				for _, maxWidth := range []int{0, 2, 3} {
					req := DecomposeRequest{MaxWidth: maxWidth, Workers: workers, Cost: model}
					where := fmt.Sprintf("query %d %s, stats %s, workers %d, maxWidth %d", qi, q, stats, workers, maxWidth)
					cands := runRace(ctx, h, req)
					ref := standaloneEngines(ctx, h, req)
					certificate := errors.Is(cands[0].err, ErrWidthExceeded) && cands[0].maxK > 0
					if workers > 1 && !certificate {
						// The parallel exact search keeps whichever worker
						// finds a decomposition first: judge the race's own.
						ref[0] = cands[0]
					}
					if certificate {
						// The capped entrant proved hw > ⌊fw(walk)⌋: the
						// uncapped engine fails or returns an HD the walk
						// beats.
						certificates++
						if walk := min(fwOf(cands[1]), fwOf(cands[2])); ref[0].err == nil && float64(ref[0].d.Width()) <= walk+decomp.FracEps {
							t.Errorf("%s: exact entrant capped at %d lost, standalone width %d vs walk fhw %v", where, cands[0].maxK, ref[0].d.Width(), walk)
						}
					} else {
						sameCandidate(t, where, cands[0], ref[0])
					}
					for i := 1; i < len(ref); i++ {
						sameCandidate(t, where, cands[i], ref[i])
					}
					got, err := rankRace(ctx, cands, model)
					want := referenceRank(ref, model)
					switch {
					case want < 0:
						if err == nil {
							t.Errorf("%s: race won with %s, every standalone engine failed", where, got.name)
						}
					case err != nil:
						t.Errorf("%s: race failed (%v), standalone %s won", where, err, ref[want].name)
					case got.name != ref[want].name || got.d.String() != ref[want].d.String() ||
						got.d.Width() != ref[want].d.Width() || !sameFW(got.d, ref[want].d):
						t.Errorf("%s: race winner %s\n%sstandalone winner %s\n%s", where, got.name, got.d, ref[want].name, ref[want].d)
					default:
						wins[got.name]++
					}
				}
			}
		}
	}
	t.Logf("winners: %v; %d exact entrants lost by certificate", wins, certificates)
	if certificates == 0 {
		t.Error("no exact entrant was capped below the walk's width: the corpus no longer exercises the certificate")
	}
	for _, name := range []string{"k-decomp", "fhd", "ghd"} {
		if wins[name] == 0 {
			t.Errorf("no race won by %s: the corpus no longer exercises every candidate", name)
		}
	}
}

// standaloneEngines runs the three engines of the race on their own: the
// exact entrant uncapped under the race's default budget, the heuristics
// under req's.
func standaloneEngines(ctx context.Context, h *Hypergraph, req DecomposeRequest) []raceCandidate {
	exact, exactReq := KDecomposer(), req
	if exactReq.StepBudget == 0 {
		exactReq.StepBudget = DefaultRaceExactBudget
	}
	greedyReq := req
	if req.MaxWidth > 0 && req.Cost == nil {
		// A satisfied bound cuts the parallel loop off at a trial that
		// depends on scheduling; the sequential loop is its one
		// deterministic reading (and the result otherwise).
		greedyReq.Workers = 1
	}
	run := func(dec Decomposer, r DecomposeRequest) raceCandidate {
		d, err := dec.Decompose(ctx, h, r)
		return raceCandidate{name: dec.Name(), d: d, err: err}
	}
	return []raceCandidate{
		run(exact, exactReq),
		run(FractionalDecomposer(), req),
		run(GreedyDecomposer(), greedyReq),
	}
}

// referenceRank is the race's ranking rule, copied so that a change to
// rankRace cannot move both sides of the comparison: the index of the
// winner, or -1 when every engine failed.
func referenceRank(cands []raceCandidate, model *CostModel) int {
	win := -1
	winFW, winCost := 0.0, 0.0
	for i, c := range cands {
		if c.err != nil || c.d == nil {
			continue
		}
		fw := c.d.FractionalWidth()
		switch {
		case model != nil:
			cost := c.d.CostWith(model)
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
	return win
}

// sameCandidate holds one heuristic candidate of the race to its
// standalone engine's result: both fail, or both return the same tree with
// the same labels and fractional width.
func sameCandidate(t *testing.T, where string, got, want raceCandidate) {
	t.Helper()
	switch {
	case (got.err != nil) != (want.err != nil):
		t.Errorf("%s: %s candidate error %v, standalone error %v", where, want.name, got.err, want.err)
	case got.err != nil:
	case got.d.String() != want.d.String() || !sameFW(got.d, want.d):
		t.Errorf("%s: %s candidate (fhw %v)\n%sstandalone (fhw %v)\n%s", where, want.name,
			got.d.FractionalWidth(), got.d, want.d.FractionalWidth(), want.d)
	}
}

// fwOf is a candidate's fractional width, +Inf when it failed.
func fwOf(c raceCandidate) float64 {
	if c.err != nil || c.d == nil {
		return math.Inf(1)
	}
	return c.d.FractionalWidth()
}

// sameFW reports whether two decompositions have the same fractional width,
// to the last bit.
func sameFW(a, b *Decomposition) bool {
	return a.FractionalWidth() == b.FractionalWidth()
}

// raceTestModel draws statistics for h: none, random cardinalities and
// distinct counts, or decoys — a few giant relations of unknown distinct
// counts among small ones, so that an LP cover spreading weight over a
// giant, or an exact decomposition joining one, loses on cost to the
// greedy candidate's cheapest integral cover.
func raceTestModel(rng *rand.Rand, h *Hypergraph, kind string) *CostModel {
	rows := make([]float64, h.NumEdges())
	switch kind {
	case "none":
		return nil
	case "random":
		for e := range rows {
			rows[e] = float64(1 + rng.Intn(100000))
		}
		return decomp.NewCostModel(h, rows, func(e, v int) float64 { return float64(1 + rng.Intn(int(rows[e]))) })
	}
	for e := range rows {
		rows[e] = float64(10 + rng.Intn(90))
		if rng.Intn(3) == 0 {
			rows[e] = 1e9
		}
	}
	return decomp.NewCostModel(h, rows, func(e, v int) float64 {
		if rows[e] >= 1e9 {
			return 0
		}
		return float64(1 + rng.Intn(int(rows[e])))
	})
}
