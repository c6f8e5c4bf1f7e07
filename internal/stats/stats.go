// Package stats collects the database statistics behind cost-based
// planning: per-relation cardinalities and per-column distinct counts,
// gathered by an exact scan (Collect) or a cheap bounded-sample scan
// (CollectSampled). The paper's tractability bound O(r^w) treats every
// relation as the same size r; real databases are skewed, and among
// decompositions of equal width the achievable evaluation cost varies with
// which relations land in the λ labels (Greco & Scarcello, "Greedy
// Strategies and Larger Islands of Tractability"). A Stats snapshot is what
// turns the width engines into a cost-based planner: the compile pipeline
// derives its cost model from it — per hypergraph edge the cardinality and
// the distinct counts of its variables — and everything that prices a
// decomposition node reads the one estimate built on that model
// (decomp.NodeCost: the join-size estimate of π_χ(⋈ λ), capped by the AGM
// bound Π_{R∈λ} |R|^weight): the heuristic engines break width ties toward
// λ labels that join rather than multiply, the auto race ranks entrants by
// the summed estimates, and the evaluator orders every node's children by
// ascending estimated cardinality.
//
// A Stats value is immutable after collection and safe for concurrent use.
// It is a snapshot: statistics do not track later database mutations, and a
// plan compiled against stale statistics is still answer-correct — only its
// cost ranking degrades. A snapshot keeps exact counts, for display; plans
// are priced and fingerprinted on their grid values (PricedRows,
// PricedDistinct).
package stats

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"hypertree/internal/relation"
)

// DefaultSampleRows is the per-relation scan bound CollectSampled uses when
// the caller passes a non-positive sample size: large enough to estimate
// distinct counts usefully, small enough that collection stays O(1)-ish per
// relation regardless of database scale.
const DefaultSampleRows = 1024

// Relation is the collected statistics of one database relation.
type Relation struct {
	// Name is the relation (predicate) name.
	Name string
	// Rows is the exact tuple count (Rows() is O(1) even under sampling).
	Rows int
	// Distinct estimates the number of distinct values per column. Under
	// Collect the counts are exact; under CollectSampled they are
	// extrapolated from the sample (see jackknife) and capped at Rows.
	Distinct []int
	// Sampled reports whether Distinct was estimated from a bounded sample
	// rather than a full scan.
	Sampled bool
}

// Stats is an immutable snapshot of per-relation statistics.
type Stats struct {
	rels  map[string]*Relation
	order []string
	fp    string // Fingerprint, computed once the snapshot is collected
}

// Collect scans every relation of db fully and returns exact statistics.
func Collect(db *relation.Database) *Stats {
	return collect(db, 0)
}

// CollectSampled returns statistics from a bounded scan: tuple counts are
// exact (O(1) per relation), distinct counts are estimated from the first
// sample rows of each relation by the first-order jackknife (see jackknife)
// and capped at the row count; a relation no larger than the sample is
// counted exactly. sample ≤ 0 selects DefaultSampleRows. The join-size
// estimates of the planner divide by these counts, so the estimator has to
// tell a saturated column (200 values in 50 000 rows) from a key; a bounded
// scan keeps WithStats affordable on multi-million-tuple databases.
func CollectSampled(db *relation.Database, sample int) *Stats {
	if sample <= 0 {
		sample = DefaultSampleRows
	}
	return collect(db, sample)
}

// collect gathers statistics; sample 0 means a full scan.
func collect(db *relation.Database, sample int) *Stats {
	s := &Stats{rels: map[string]*Relation{}}
	for _, name := range db.RelationNames() {
		r := db.Relation(name)
		rows := r.Rows()
		scan := rows
		sampled := false
		if sample > 0 && scan > sample {
			scan, sampled = sample, true
		}
		distinct := make([]int, r.Arity)
		if r.Arity > 0 && scan > 0 {
			seen := make([]map[relation.Value]int, r.Arity)
			for c := range seen {
				seen[c] = map[relation.Value]int{}
			}
			for i := 0; i < scan; i++ {
				for c, v := range r.Row(i) {
					seen[c][v]++
				}
			}
			for c := range distinct {
				d := len(seen[c])
				if sampled {
					d = jackknife(seen[c], scan, rows)
				}
				distinct[c] = max(min(d, rows), 1)
			}
		}
		s.rels[name] = &Relation{Name: name, Rows: rows, Distinct: distinct, Sampled: sampled}
		s.order = append(s.order, name)
	}
	s.fp = s.fingerprint()
	return s
}

// jackknife extrapolates a column's distinct count from the value→count map
// of an n-row sample of an N-row relation by the first-order jackknife
// estimator (Haas, Naughton, Seshadri & Stokes, "Sampling-Based Estimation
// of the Number of Distinct Values of an Attribute", VLDB 1995):
//
//	D = d / (1 − (1 − n/N)·f1/n)
//
// with d the distinct values seen and f1 how many of them were seen exactly
// once. The singletons carry the information a linear scale-up d·N/n throws
// away: a sample with none has seen every value there is (D = d), a sample
// of nothing but singletons comes from a key (D = N), and in between the
// share of singletons says how much of the domain is still unseen.
func jackknife(counts map[relation.Value]int, n, N int) int {
	f1 := 0
	for _, c := range counts {
		if c == 1 {
			f1++
		}
	}
	q := float64(n) / float64(N)
	return int(math.Round(float64(len(counts)) / (1 - (1-q)*float64(f1)/float64(n))))
}

// Relation returns the statistics of the named relation, or nil when the
// database held no such relation at collection time.
func (s *Stats) Relation(name string) *Relation {
	if s == nil {
		return nil
	}
	return s.rels[name]
}

// RelationNames returns the relation names in collection order.
func (s *Stats) RelationNames() []string {
	if s == nil {
		return nil
	}
	return s.order
}

// Rows returns the collected cardinality of the named relation. Unknown
// relations report 0 — an atom over an absent relation binds to the empty
// table, so 0 is the honest estimate.
func (s *Stats) Rows(name string) int {
	if r := s.Relation(name); r != nil {
		return r.Rows
	}
	return 0
}

// Distinct returns the (estimated) distinct-value count of column col of
// the named relation, or 0 when the relation or column is unknown.
func (s *Stats) Distinct(name string, col int) int {
	r := s.Relation(name)
	if r == nil || col < 0 || col >= len(r.Distinct) {
		return 0
	}
	return r.Distinct[col]
}

// PricedRows returns Rows(name) on the pricing grid (Grid). It and
// PricedDistinct are the only counts plans are priced and fingerprinted on.
func (s *Stats) PricedRows(name string) int { return Grid(s.Rows(name)) }

// PricedDistinct returns Distinct(name, col) on the pricing grid (Grid).
func (s *Stats) PricedDistinct(name string, col int) int { return Grid(s.Distinct(name, col)) }

// Grid rounds a row or distinct count to the nearest quarter-octave,
// round(2^(round(4·log₂ x)/4)); counts below 1 stay as they are. Plans are
// priced and fingerprinted on this grid (PricedRows, PricedDistinct), never
// on the exact counts: a count that drifts inside one grid cell moves no
// price, so it moves no plan and no plan-cache key. Adjacent cells differ
// by about 19 %.
func Grid(x int) int {
	if x < 1 {
		return x
	}
	return int(math.Round(math.Exp2(math.Round(4*math.Log2(float64(x))) / 4)))
}

// Fingerprint returns a stable digest of the snapshot's grid values
// (PricedRows and PricedDistinct of every relation), used to key plan caches: two snapshots
// with the same fingerprint price every plan the same, so their plans are
// interchangeable. Relations are fingerprinted in sorted name order —
// collection order is presentation, not content. It is computed once, at
// collection, and every request keys by it.
func (s *Stats) Fingerprint() string {
	if s == nil {
		return ""
	}
	return s.fp
}

// fingerprint computes Fingerprint.
func (s *Stats) fingerprint() string {
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		r := s.rels[name]
		fmt.Fprintf(h, "%s:%d:", name, s.PricedRows(name))
		for i := range r.Distinct {
			if i > 0 {
				fmt.Fprint(h, ",")
			}
			fmt.Fprintf(h, "%d", s.PricedDistinct(name, i))
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// String summarises the snapshot for diagnostics and Explain reports.
func (s *Stats) String() string {
	if s == nil {
		return "stats{none}"
	}
	var b strings.Builder
	b.WriteString("stats{")
	for i, name := range s.order {
		if i > 0 {
			b.WriteString(", ")
		}
		r := s.rels[name]
		fmt.Fprintf(&b, "%s:%d", name, r.Rows)
		if r.Sampled {
			b.WriteString("~")
		}
	}
	b.WriteString("}")
	return b.String()
}
