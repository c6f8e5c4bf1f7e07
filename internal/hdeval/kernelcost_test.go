package hdeval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/relation"
	"hypertree/internal/stats"
)

// symmetricTriangleStats builds EdgeStats for the triangle query — every
// edge the same row count, every bound variable the same distinct count —
// so whichever edge pair a decomposition bags together, the cost model sees
// the same two-relation join on one shared variable.
func symmetricTriangleStats(q *cq.Query, rows, distinct float64) *stats.EdgeStats {
	h, edgeToAtom := q.Hypergraph()
	es := &stats.EdgeStats{
		Rows:     make([]float64, h.NumEdges()),
		Distinct: make([]map[int]float64, h.NumEdges()),
	}
	for e := range es.Rows {
		es.Rows[e] = rows
		dv := map[int]float64{}
		h.Edge(e).ForEach(func(v int) { dv[v] = distinct })
		es.Distinct[e] = dv
		_ = edgeToAtom
	}
	return es
}

// kernelsOf collects the decided per-node kernels from NodeInfos.
func kernelsOf(e *Evaluator) []string {
	var out []string
	for _, info := range e.NodeInfos() {
		out = append(out, info.Kernel)
	}
	return out
}

// The cost anchors, calibrated to the E27/E29 measurements: a hash-join
// row costs enough more than a counting-sort cell that leapfrog wins every
// multi-relation bag large enough to amortise its fixed setup, whatever the
// join selectivity, while tiny bags stay on the chain because the setup
// term dominates. Single-relation bags are scans under every policy. All
// three anchors sit well clear of the decision boundary so reasonable
// constant recalibration does not flip them.
func TestCostDecisionAnchors(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	d := decompose(q)

	selective := symmetricTriangleStats(q, 5000, 5000)
	eSel, err := NewEvaluatorCost(q, d, selective, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelsOf(eSel) {
		if k != "leapfrog(cost)" && k != "chain(fallback)" && k != kernelScan {
			t.Fatalf("large selective bag priced to %q, want leapfrog(cost): %v", k, kernelsOf(eSel))
		}
	}

	// Output explosion (10 distinct values over 1000 rows: |out| = 100·|in|)
	// does NOT hand the bag back to the chain: E29 measured the chain 3×
	// slower than leapfrog on exactly this shape — every exploded row costs
	// the hash path more than it costs the trie enumerator.
	exploding := symmetricTriangleStats(q, 1000, 10)
	eExp, err := NewEvaluatorCost(q, d, exploding, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	explodingLf := 0
	for _, k := range kernelsOf(eExp) {
		if k == "leapfrog(cost)" {
			explodingLf++
		}
	}
	if explodingLf == 0 {
		t.Fatalf("no bag priced to leapfrog on the exploding workload: %v", kernelsOf(eExp))
	}

	// Tiny bags stay on the chain: costLfSetup outweighs everything else.
	tiny := symmetricTriangleStats(q, 40, 40)
	eTiny, err := NewEvaluatorCost(q, d, tiny, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	tinyChain := 0
	for _, k := range kernelsOf(eTiny) {
		if k != "chain(cost)" && k != kernelScan {
			t.Fatalf("tiny bag priced to %q, want chain(cost): %v", k, kernelsOf(eTiny))
		}
		if k == "chain(cost)" {
			tinyChain++
		}
	}
	if tinyChain == 0 {
		t.Fatalf("no bag priced to the chain on the tiny workload: %v", kernelsOf(eTiny))
	}

	// Pricing is mechanism only: both evaluators agree with the naive join.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t"} {
			for i := 0; i < rng.Intn(15); i++ {
				db.AddFact(name, val(rng.Intn(5)), val(rng.Intn(5)))
			}
		}
		want, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*Evaluator{eSel, eExp, eTiny} {
			got, err := e.Enumerate(context.Background(), db, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d: cost-kerneled evaluation disagrees with naive join", trial)
			}
		}
	}
}

// Without distinct counts the auto policy must degrade to the arity rule,
// recorded as such.
func TestAutoWithoutStatsUsesArityRule(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	d := decompose(q)
	e, err := NewEvaluatorCost(q, d, nil, KernelAuto)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelsOf(e) {
		if !strings.HasSuffix(k, "(arity)") && k != "chain(fallback)" && k != kernelScan {
			t.Fatalf("statistics-free auto decision %q, want an (arity) qualifier", k)
		}
	}
}

// A node whose χ reaches outside var(λ) has no leapfrog plan; a policy that
// wanted leapfrog must fall back to the chain observably — counted on the
// evaluator and named in the per-node record.
func TestLeapfrogFallbackObservable(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z)`)
	h, _ := q.Hypergraph()
	vx, _ := q.VarIndex("X")
	vy, _ := q.VarIndex("Y")
	vz, _ := q.VarIndex("Z")
	// Root covers all three variables but λ holds only r: Z ∉ var(λ).
	// Complete() attaches ⟨χ={Y,Z}, λ={s}⟩ below it, which leapfrogs fine.
	d := &decomp.Decomposition{H: h, Root: &decomp.Node{
		Chi:    bitset.Of(vx, vy, vz),
		Lambda: bitset.Of(0),
	}}
	e, err := NewEvaluatorCost(q, d, nil, KernelLeapfrog)
	if err != nil {
		t.Fatal(err)
	}
	if e.LeapfrogFallbacks() != 1 {
		t.Fatalf("LeapfrogFallbacks = %d, want 1", e.LeapfrogFallbacks())
	}
	fallbacks := 0
	for _, k := range kernelsOf(e) {
		if k == "chain(fallback)" {
			fallbacks++
		}
	}
	if fallbacks != 1 {
		t.Fatalf("kernels %v, want exactly one chain(fallback)", kernelsOf(e))
	}
	// No evaluation here: a χ outside var(λ) violates the decomposition
	// conditions, so neither kernel can materialise the node — the point is
	// only that the policy's retreat is counted and named, never silent.
}

// The encoding cache: same database, relation and key hit; a new database
// pointer is a new generation and drops every prior entry; a relation that
// grew in place is a miss even within its generation.
func TestEncCacheGenerations(t *testing.T) {
	db1 := relation.NewDatabase()
	db2 := relation.NewDatabase()
	rel, err := db1.AddRelation("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel.Add(db1.Intern("a"))
	tab := relation.NewTable([]int{0})
	enc := func() (*relation.Columnar, error) { return relation.NewColumnar(tab, []int{0}), nil }

	var c encCache
	key := encKey{edge: 0, order: "0,", width: 1}
	// get reports the encoding and whether it was a hit, and must move the
	// process-wide counters by exactly one.
	get := func(db *relation.Database, rel *relation.Relation, wantHit bool) *relation.Columnar {
		t.Helper()
		h0, m0 := ColumnarCacheCounters()
		got, hit, err := c.get(db, rel, key, enc)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := ColumnarCacheCounters()
		if hit != wantHit || h1-h0+m1-m0 != 1 || (h1 > h0) != wantHit {
			t.Fatalf("hit = %v (counters +%d/+%d), want hit = %v", hit, h1-h0, m1-m0, wantHit)
		}
		return got
	}

	first := get(db1, rel, false)
	if second := get(db1, rel, true); first != second {
		t.Fatal("same generation, same key: want the cached encoding back")
	}
	// Swap the database: generation reset, the entry must rebuild.
	get(db2, nil, false)
	// And db1's entries are gone: touching db1 again misses too.
	get(db1, rel, false)
	get(db1, rel, true)
	// The relation grows in place: same database pointer, stale encoding.
	rel.Add(db1.Intern("b"))
	get(db1, rel, false)
	get(db1, rel, true)
}

// orderKey must injectively render orders (no "1,2" vs "12" collisions).
func TestOrderKeyInjective(t *testing.T) {
	if orderKey([]int{1, 2}) == orderKey([]int{12}) {
		t.Fatal("orderKey collides on {1,2} vs {12}")
	}
	if orderKey([]int{}) != "" {
		t.Fatalf("orderKey(empty) = %q", orderKey([]int{}))
	}
}
