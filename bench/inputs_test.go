package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hypertree"
)

func TestRenameVarsKeepsCanonicalForm(t *testing.T) {
	pool := append(append([]template{cyclicTemplate, enumTemplate}, servingTemplates...), paperQueries...)
	for _, tm := range pool {
		a, b := renameVars(tm.src, 1), renameVars(tm.src, 123456)
		if a == b || a == tm.src {
			t.Errorf("%s: renaming did not change the text: %s", tm.name, a)
		}
		want := hypertree.CanonicalForm(hypertree.MustParseQuery(tm.src))
		for _, src := range []string{a, b} {
			q, err := hypertree.ParseQuery(src)
			if err != nil {
				t.Fatalf("%s: renamed text %q does not parse: %v", tm.name, src, err)
			}
			if got := hypertree.CanonicalForm(q); got != want {
				t.Errorf("%s: canonical form moved under renaming:\n got %s\nwant %s", tm.name, got, want)
			}
		}
	}
	if got, want := templateVars(enumTemplate.src), []string{"X1", "X2", "X3", "X4"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("templateVars = %v, want %v", got, want)
	}
}

func TestPlanPoolShape(t *testing.T) {
	shapes := planShapes()
	if len(shapes) != 243 {
		t.Fatalf("%d shapes, want 243", len(shapes))
	}
	keys := planKeys(shapes)
	if len(keys) != 3*243 {
		t.Fatalf("%d keys, want 729", len(keys))
	}
	distinct := map[string]bool{}
	for _, k := range keys {
		q, err := hypertree.ParseQuery(k.src)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		distinct[hypertree.CanonicalForm(q)] = true
	}
	// A few shapes read the same in two orders (the class C_n atoms differ
	// only in a variable), but the working set must stay well above the cache.
	if len(distinct) < 2*planCacheCapacity {
		t.Errorf("%d distinct cache keys for a cache of %d: not a churn workload", len(distinct), planCacheCapacity)
	}
	if got := splitAtoms("a(X, Y), b(Y), c(Z, f)"); len(got) != 3 || got[1] != "b(Y)" {
		t.Errorf("splitAtoms = %q", got)
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(5, 1.2)
	rng := rand.New(rand.NewSource(7))
	var n [5]int
	for i := 0; i < 100000; i++ {
		n[z.sample(rng)]++
	}
	for i := 1; i < len(n); i++ {
		if n[i] >= n[i-1] {
			t.Errorf("rank %d drawn %d times, rank %d %d times: not decreasing", i, n[i], i-1, n[i-1])
		}
	}
	// P(rank 0) = 1 / Σ (i+1)^-1.2 ≈ 0.4909 over five ranks.
	if p := float64(n[0]) / 100000; p < 0.48 || p > 0.50 {
		t.Errorf("rank 0 share %.4f, want ≈ 0.491", p)
	}
	// Stratified draws: every block of 100 has the same composition, whatever
	// the seed.
	for _, seed := range []int64{1, 2} {
		draws := z.stratified(rand.New(rand.NewSource(seed)), 1000)
		if len(draws) != 1000 {
			t.Fatalf("%d stratified draws, want 1000", len(draws))
		}
		for b := 0; b < 10; b++ {
			var c [5]int
			for _, d := range draws[b*100 : (b+1)*100] {
				c[d]++
			}
			if c != [5]int{49, 22, 13, 9, 7} {
				t.Errorf("seed %d block %d holds %v, want [49 22 13 9 7]", seed, b, c)
			}
		}
	}
}

// Generated relations are degree-regular: whatever the seed, every constant
// occurs ⌊rows/domain⌋ or ⌈rows/domain⌉ times in each column.
func TestFactsTextDegreeRegular(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		db := hypertree.NewDatabase()
		if err := db.ParseFacts(factsText(rand.New(rand.NewSource(seed)), []string{"r"}, 500, 200)); err != nil {
			t.Fatal(err)
		}
		r := db.Relation("r")
		if r.Rows() != 500 {
			t.Errorf("seed %d: %d distinct tuples, want exactly 500", seed, r.Rows())
		}
		var deg [2]map[int32]int
		deg[0], deg[1] = map[int32]int{}, map[int32]int{}
		for i := 0; i < r.Rows(); i++ {
			for col, v := range r.Row(i) {
				deg[col][v]++
			}
		}
		for col := range deg {
			if len(deg[col]) != 200 {
				t.Errorf("seed %d: column %d holds %d constants, want 200", seed, col, len(deg[col]))
			}
			for v, d := range deg[col] {
				if d < 2 || d > 3 {
					t.Errorf("seed %d: constant %d occurs %d times in column %d, want 2 or 3", seed, v, d, col)
				}
			}
		}
	}
}

// baselineFile is the part of BASELINE.json the tests read.
type baselineFile struct {
	Seed        int64             `json:"seed"`
	InputSHA256 map[string]string `json:"input_sha256"`
}

// workloadInputSHA generates a workload's inputs without running it.
func workloadInputSHA(name string, seed int64) string {
	if name == "plan_churn" {
		_, sha := planDraws(seed, planKeys(planShapes()))
		return sha
	}
	for _, w := range httpWorkloads {
		if w.name == name {
			return w.inputs(seed).sha
		}
	}
	return ""
}

// The generators are deterministic per seed, differ across seeds, and for the
// default seed still produce the inputs BASELINE.json pins — so a figure
// measured later is a figure about the same work.
func TestInputsDeterministicAndPinned(t *testing.T) {
	data, err := os.ReadFile("BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		a, b := workloadInputSHA(name, base.Seed), workloadInputSHA(name, base.Seed)
		if a == "" || a != b {
			t.Errorf("%s: same seed gave %q then %q", name, a, b)
		}
		if other := workloadInputSHA(name, base.Seed+1); other == a {
			t.Errorf("%s: seeds %d and %d gave the same inputs", name, base.Seed, base.Seed+1)
		}
		if want := base.InputSHA256[name]; a != want {
			t.Errorf("%s: input_sha256 %s, BASELINE.json pins %s", name, a, want)
		}
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the metric lists in report.go must name the same
// workloads, metrics and units, in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the bench defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the bench", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the bench has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the bench", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d is %s (%s), the bench has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the bench", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d is %s (%s), the bench has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
