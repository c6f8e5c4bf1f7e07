package stats

import (
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/relation"
)

func buildDB(t *testing.T) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	// r: 4 rows, col0 has 2 distinct values, col1 has 4
	for i, a := range []string{"x", "x", "y", "y"} {
		if err := db.AddFact("r", a, fmt.Sprintf("b%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddFact("s", "only"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCollectExact(t *testing.T) {
	db := buildDB(t)
	s := Collect(db)
	if got := s.Rows("r"); got != 4 {
		t.Errorf("Rows(r) = %d, want 4", got)
	}
	if got := s.Distinct("r", 0); got != 2 {
		t.Errorf("Distinct(r,0) = %d, want 2", got)
	}
	if got := s.Distinct("r", 1); got != 4 {
		t.Errorf("Distinct(r,1) = %d, want 4", got)
	}
	if got := s.Rows("s"); got != 1 {
		t.Errorf("Rows(s) = %d, want 1", got)
	}
	if r := s.Relation("r"); r == nil || r.Sampled {
		t.Errorf("Relation(r) = %+v, want exact stats", r)
	}
	// unknown relations and columns report zero, not panic
	if s.Rows("nope") != 0 || s.Distinct("r", 9) != 0 || s.Distinct("nope", 0) != 0 {
		t.Error("unknown lookups must report 0")
	}
	if got := len(s.RelationNames()); got != 2 {
		t.Errorf("RelationNames: %d, want 2", got)
	}
}

func TestCollectSampledBoundsAndScales(t *testing.T) {
	db := relation.NewDatabase()
	r, err := db.AddRelation("big", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		r.Add(relation.Value(db.Intern(fmt.Sprintf("v%d", i%50))))
	}
	s := CollectSampled(db, 10)
	rel := s.Relation("big")
	if rel == nil || !rel.Sampled {
		t.Fatalf("big must be sampled: %+v", rel)
	}
	if rel.Rows != 50 {
		// set semantics deduplicate to the 50 distinct unary tuples
		t.Fatalf("Rows = %d, want 50", rel.Rows)
	}
	if d := rel.Distinct[0]; d < 1 || d > rel.Rows {
		t.Fatalf("Distinct[0] = %d out of [1, %d]", d, rel.Rows)
	}
	// sample ≤ 0 selects the default bound and, at 50 rows, scans fully
	s2 := CollectSampled(db, 0)
	if s2.Relation("big").Sampled {
		t.Error("50 rows under the 1024-row default must be exact")
	}
	if got := s2.Distinct("big", 0); got != 50 {
		t.Errorf("Distinct = %d, want 50", got)
	}
}

func TestFingerprint(t *testing.T) {
	db := buildDB(t)
	a, b := Collect(db), Collect(db)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical databases must fingerprint identically")
	}
	if err := db.AddFact("r", "z", "z"); err != nil {
		t.Fatal(err)
	}
	if c := Collect(db); c.Fingerprint() == a.Fingerprint() {
		t.Error("a cardinality change must change the fingerprint")
	}
	var nilStats *Stats
	if nilStats.Fingerprint() != "" {
		t.Error("nil snapshot must fingerprint empty")
	}
	if nilStats.Rows("r") != 0 || nilStats.Relation("r") != nil || nilStats.RelationNames() != nil {
		t.Error("nil snapshot accessors must be inert")
	}
	if nilStats.String() != "stats{none}" {
		t.Error("nil snapshot String")
	}
}

// Every plan-cache lookup keys by the live snapshot's fingerprint, so it is
// computed once, at collection: reading it allocates nothing.
func TestFingerprintAllocatesNothing(t *testing.T) {
	st := CollectSampled(buildDB(t), 0)
	want := st.Fingerprint()
	if allocs := testing.AllocsPerRun(100, func() {
		if st.Fingerprint() != want {
			t.Fatal("the fingerprint moved")
		}
	}); allocs != 0 {
		t.Fatalf("Fingerprint allocates %v times per call, want 0", allocs)
	}
}

func TestStringMarksSampling(t *testing.T) {
	db := relation.NewDatabase()
	r, _ := db.AddRelation("big", 1)
	for i := 0; i < 2000; i++ {
		r.Add(relation.Value(db.Intern(fmt.Sprintf("v%d", i))))
	}
	s := CollectSampled(db, 100)
	if got := s.String(); got != "stats{big:2000~}" {
		t.Errorf("String = %q", got)
	}
}

// The sampled distinct counts divide the planner's join estimates, so they
// must land within 2× of the truth across the regimes a column can be in —
// a few values repeated over and over, half as many values as rows, a key —
// from the default 1024-row sample of 50 000 rows; and a relation that fits
// the sample is counted exactly.
func TestSampledDistinctWithinTwofold(t *testing.T) {
	const rows = 50000
	for _, c := range []struct {
		name     string
		distinct int
	}{
		{"saturated", 200},
		{"half-distinct", rows / 2},
		{"unique", rows},
	} {
		// column 0 is a key (set semantics would otherwise fold the rows);
		// column 1 draws uniformly from the regime's domain, every value of
		// which occurs
		rng := rand.New(rand.NewSource(int64(c.distinct)))
		vals := make([]int, rows)
		for i := range vals {
			vals[i] = i % c.distinct
		}
		rng.Shuffle(rows, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		db := relation.NewDatabase()
		r, err := db.AddRelation("r", 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			r.Add(relation.Value(db.Intern(fmt.Sprint("k", i))), relation.Value(db.Intern(fmt.Sprint("v", v))))
		}
		s := CollectSampled(db, 0)
		if !s.Relation("r").Sampled {
			t.Fatalf("%s: 50 000 rows must be sampled", c.name)
		}
		for col, truth := range []int{rows, c.distinct} {
			got := s.Distinct("r", col)
			if got > 2*truth || 2*got < truth {
				t.Errorf("%s: column %d estimated at %d distinct values, truth %d", c.name, col, got, truth)
			}
		}
		if exact := Collect(db); exact.Distinct("r", 1) != c.distinct || exact.Relation("r").Sampled {
			t.Errorf("%s: exact scan counts %d, want %d", c.name, exact.Distinct("r", 1), c.distinct)
		}
	}

	small := relation.NewDatabase()
	r, _ := small.AddRelation("r", 1)
	for i := 0; i < DefaultSampleRows; i++ {
		r.Add(relation.Value(small.Intern(fmt.Sprint("v", i))))
	}
	if s := CollectSampled(small, 0); s.Relation("r").Sampled || s.Distinct("r", 0) != DefaultSampleRows {
		t.Errorf("a relation of DefaultSampleRows rows must be counted exactly: %+v", s.Relation("r"))
	}
}

// The pricing grid is quarter-octaves: monotone, a fixed point on its own
// values, within half a cell (≈ 9 %) of the count it rounds, and 0 for an
// empty relation. PricedRows and PricedDistinct read the exact counts on it.
func TestGrid(t *testing.T) {
	for x, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 5: 5, 9: 10, 100: 108, 500: 512, 2500: 2435} {
		if got := Grid(x); got != want {
			t.Errorf("Grid(%d) = %d, want %d", x, got, want)
		}
	}
	prev := 0
	for x := 1; x < 100_000; x++ {
		g := Grid(x)
		if g < prev || Grid(g) != g || float64(g) > 1.1*float64(x)+1 || float64(g) < float64(x)/1.1-1 {
			t.Fatalf("Grid(%d) = %d (Grid(%d) = %d)", x, g, x-1, prev)
		}
		prev = g
	}
	db := relation.NewDatabase()
	for i := 0; i < 100; i++ {
		db.AddFact("r", fmt.Sprint("a", i), fmt.Sprint("b", i%9))
	}
	s := Collect(db)
	if s.Rows("r") != 100 || s.PricedRows("r") != 108 || s.PricedDistinct("r", 0) != 108 ||
		s.PricedDistinct("r", 1) != 10 || s.PricedRows("absent") != 0 || s.PricedDistinct("r", 2) != 0 {
		t.Fatalf("priced counts of %v: rows %d, distinct %d, %d", s, s.PricedRows("r"), s.PricedDistinct("r", 0), s.PricedDistinct("r", 1))
	}
}
