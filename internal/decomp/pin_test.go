package decomp_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/querydecomp"
)

// stepCeiling bounds the budget probe of exactSteps: a search that needs
// more steps is recorded as such and is not run unbudgeted.
const stepCeiling = 1 << 14

// exactSteps returns the steps a budgeted search spends, as the least
// budget it completes under (any outcome but ErrStepBudget), or
// stepCeiling+1 when it needs more than stepCeiling. A search's budget
// check precedes each step, so that least budget is the step count.
func exactSteps(run func(budget int) error) int {
	over := func(b int) bool { return errors.Is(run(b), decomp.ErrStepBudget) }
	hi := 1
	for ; over(hi); hi *= 2 {
		if hi >= stepCeiling {
			return stepCeiling + 1
		}
	}
	lo := hi / 2 // over(lo) holds, or lo = 0
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; over(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// pinCorpus is gen.Families plus TestCappedWidthMatchesUncapped's random
// hypergraphs and binary cliques, in a fixed order.
func pinCorpus() (names []string, hs []*hypergraph.Hypergraph) {
	fams := gen.Families()
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h, _ := fams[name].Hypergraph()
		hs = append(hs, h)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 40; i++ {
		nv, ne, maxArity := 3+rng.Intn(6), 3+rng.Intn(8), 2+rng.Intn(2)
		h := hypergraph.New()
		for v := 0; v < nv; v++ {
			h.AddVertex(string(rune('A' + v)))
		}
		for e := 0; e < ne; e++ {
			var s bitset.Set
			for j := 0; j < 1+rng.Intn(maxArity); j++ {
				s.Add(rng.Intn(nv))
			}
			h.AddEdgeSet("e"+string(rune('a'+e)), s)
		}
		names, hs = append(names, fmt.Sprintf("random%d", i)), append(hs, h)
	}
	for n := 4; n <= 7; n++ {
		h := hypergraph.New()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				h.AddEdge(fmt.Sprintf("e%d_%d", i, j), fmt.Sprintf("V%d", i), fmt.Sprintf("V%d", j))
			}
		}
		names, hs = append(names, fmt.Sprintf("clique%d", n)), append(hs, h)
	}
	return names, hs
}

// The exact searches return, byte for byte, what they returned before
// k-decomp's sequential and parallel engines and the query-decomposition
// search shared one width loop: per search one digest over the corpus,
// every k (or width cap, or lower bound) in 1..4 and every budget in
// {0, 5, 40, 300}, of the decomposition, its width, the error and the
// steps spent. Digests taken at the commit before that change.
func TestExactSearchesUnchanged(t *testing.T) {
	want := map[string]string{
		"decomp.WidthContext":       "5bffd6dfa2c158fc",
		"decomp.DecomposeContext":   "3b5b6f10dca7c1bb",
		"querydecomp.WidthContext":  "02e0c1ec5f6be03e",
		"querydecomp.SearchContext": "b6fddca0b29a4439",
	}
	ctx := context.Background()
	type search func(h *hypergraph.Hypergraph, k, budget int) (int, *decomp.Decomposition, error)
	searches := map[string]search{
		"decomp.WidthContext": func(h *hypergraph.Hypergraph, maxK, budget int) (int, *decomp.Decomposition, error) {
			return decomp.WidthContext(ctx, h, budget, maxK)
		},
		"decomp.DecomposeContext": func(h *hypergraph.Hypergraph, k, budget int) (int, *decomp.Decomposition, error) {
			d, err := decomp.DecomposeContext(ctx, h, k, budget)
			return k, d, err
		},
		"querydecomp.WidthContext": func(h *hypergraph.Hypergraph, lower, budget int) (int, *decomp.Decomposition, error) {
			return querydecomp.WidthContext(ctx, h, lower, budget)
		},
		"querydecomp.SearchContext": func(h *hypergraph.Hypergraph, k, budget int) (int, *decomp.Decomposition, error) {
			d, err := querydecomp.SearchContext(ctx, h, k, budget)
			return k, d, err
		},
	}
	names, hs := pinCorpus()
	for fn, run := range searches {
		digest := sha256.New()
		for i, h := range hs {
			for k := 1; k <= 4; k++ {
				fmt.Fprintf(digest, "%s k=%d\n", names[i], k)
				steps := exactSteps(func(budget int) error { _, _, err := run(h, k, budget); return err })
				fmt.Fprintf(digest, "steps %d\n", steps)
				for _, budget := range []int{0, 5, 40, 300} {
					if budget == 0 && steps > stepCeiling {
						continue
					}
					w, d, err := run(h, k, budget)
					writeOutcome(digest, budget, w, d, err)
				}
			}
		}
		if got := fmt.Sprintf("%x", digest.Sum(nil))[:16]; got != want[fn] {
			t.Errorf("%s: digest %s, want %s", fn, got, want[fn])
		}
	}
}

func writeOutcome(digest hash.Hash, budget, w int, d *decomp.Decomposition, err error) {
	if err != nil {
		fmt.Fprintf(digest, "budget %d: error: %v\n", budget, err)
		return
	}
	fmt.Fprintf(digest, "budget %d: width %d\n%s", budget, w, d)
}
