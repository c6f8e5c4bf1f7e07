package hypertree

import (
	"fmt"

	"hypertree/internal/decomp"
	"hypertree/internal/stats"
)

// Stats is a statistics snapshot of a database — per-relation cardinalities
// and per-column distinct counts — used by cost-based planning: see
// WithStats, WithCostModel and Plan.Explain. Collect one with CollectStats
// or CollectStatsSampled. A snapshot keeps exact counts; plans are priced
// and fingerprinted on their quarter-octave grid values.
type Stats = stats.Stats

// CollectStats scans every relation of db fully and returns exact
// statistics. On large databases prefer CollectStatsSampled.
func CollectStats(db *Database) *Stats { return stats.Collect(db) }

// CollectStatsSampled collects statistics from a bounded scan: tuple counts
// are exact, distinct counts are estimated from the first sample rows of
// each relation (sample ≤ 0 selects stats.DefaultSampleRows). This is the
// collection WithStats performs — cheap enough to run inline at compile
// time on multi-million-tuple databases.
func CollectStatsSampled(db *Database, sample int) *Stats {
	return stats.CollectSampled(db, sample)
}

// WithStats makes compilation cost-based against db: a sampled statistics
// snapshot is collected (CollectStatsSampled with the default bound) and
// threaded through the whole planning pipeline — the heuristic engines
// break width ties toward λ labels whose node tables are estimated smaller
// (a join of two relations over a shared variable instead of their
// product), the WithAutoStrategy race ranks entrants by estimated total
// cost — Σ over nodes p of the estimated size of π_χ(p)(⋈ λ(p)), from
// cardinalities and distinct counts, capped by the AGM bound — instead of
// width alone, the evaluator orders every node's children by ascending
// estimated cardinality, and Plan.Explain reports the per-node estimates.
// Statistics never change answers — only which same-width plan wins and in
// which order it visits children; the equivalence is property-tested across every
// engine. Prices are taken on the snapshot's grid values (every count
// rounded to the nearest quarter-octave, see Stats.Fingerprint), not its
// exact counts, so two snapshots with one fingerprint compile to one plan.
// The snapshot is taken at compile time: a plan stays correct when the
// database drifts, but recompile (plans compiled under different
// statistics are cached separately, keyed by the snapshot's fingerprint) to
// re-rank. Use WithCostModel to supply a precollected or hand-built snapshot
// instead; when both options are given, WithCostModel wins.
func WithStats(db *Database) CompileOption {
	return func(c *compileConfig) {
		if db == nil {
			if c.err == nil {
				c.err = fmt.Errorf("hypertree: WithStats on a nil database")
			}
			return
		}
		c.statsDB = db
	}
}

// WithCostModel supplies an explicit statistics snapshot for cost-based
// planning — the same effect as WithStats, with the collection under the
// caller's control: collect exactly (CollectStats), collect once and reuse
// across many compilations, or price plans against a database the process
// never loads. A nil snapshot is rejected; to compile without a cost model,
// omit the option. Takes precedence over WithStats when both are given.
func WithCostModel(s *Stats) CompileOption {
	return func(c *compileConfig) {
		if s == nil {
			if c.err == nil {
				c.err = fmt.Errorf("hypertree: WithCostModel on a nil statistics snapshot")
			}
			return
		}
		c.stats = s
	}
}

// EstimateCost prices a decomposition of q's hypergraph against a
// statistics snapshot: Σ over nodes of the estimated cardinality of the
// node's table π_χ(⋈ λ) — the join-size estimate from the relations'
// cardinalities and per-column distinct counts, never above the AGM bound
// Π_{R∈λ} |R|^w — the same number the cost-based race minimises. (Plan.
// EstimatedCost instead prices what a plan executes: its completed tree, on
// the columns each table keeps.) It lets experiments and tools compare plans
// compiled under different rankings on one scale — e.g. how much cheaper the
// WithStats winner is than the width-only winner.
func EstimateCost(q *Query, d *Decomposition, s *Stats) float64 {
	if d == nil || s == nil {
		return 0
	}
	h, edgeToAtom := q.Hypergraph()
	return d.CostWith(costModelFor(q, h, edgeToAtom, s))
}

// costModelFor derives the compilation's cost model from a statistics
// snapshot: every hypergraph edge gets the cardinality of the relation
// backing its atom and, per variable, the distinct count of the column
// binding it (the smallest, when the variable repeats within the atom),
// both read on the grid the snapshot's fingerprint is taken on
// (Stats.PricedRows, Stats.PricedDistinct) — so equal fingerprints price
// every plan alike. h and edgeToAtom are what Query.Hypergraph returns.
func costModelFor(q *Query, h *Hypergraph, edgeToAtom []int, s *Stats) *CostModel {
	rows := make([]float64, len(edgeToAtom))
	for e, ai := range edgeToAtom {
		rows[e] = float64(s.PricedRows(q.Atoms[ai].Pred))
	}
	return decomp.NewCostModel(h, rows, func(e, v int) float64 {
		atom := q.Atoms[edgeToAtom[e]]
		d := 0
		for col, t := range atom.Args {
			if !t.IsVar {
				continue
			}
			if vi, ok := q.VarIndex(t.Name); !ok || vi != v {
				continue
			}
			if c := s.PricedDistinct(atom.Pred, col); c > 0 && (d == 0 || c < d) {
				d = c
			}
		}
		return float64(d)
	})
}
