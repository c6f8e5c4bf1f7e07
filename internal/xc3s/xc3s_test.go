package xc3s

import (
	"context"
	"math/rand"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/querydecomp"
)

func TestSolveRunningExample(t *testing.T) {
	ins := RunningExample()
	cover, ok := ins.Solve()
	if !ok {
		t.Fatalf("Ie is a positive instance (D2 and D4 partition Re)")
	}
	// the paper's solution is {D2, D4} = indices {1, 3}
	if len(cover) != 2 || cover[0] != 1 || cover[1] != 3 {
		t.Fatalf("cover = %v, want [1 3]", cover)
	}
}

func TestSolveNegative(t *testing.T) {
	// all triples pairwise intersect: no two disjoint sets cover R
	neg := Instance{R: 6, D: [][3]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}, {1, 3, 5}}}
	if _, ok := neg.Solve(); ok {
		t.Fatalf("instance should be negative")
	}
	// missing element
	neg2 := Instance{R: 6, D: [][3]int{{0, 1, 2}, {0, 1, 3}}}
	if _, ok := neg2.Solve(); ok {
		t.Fatalf("element 4 uncovered: negative")
	}
}

func TestValidateInstance(t *testing.T) {
	bad := []Instance{
		{R: 4, D: nil},                 // not divisible by 3
		{R: 3, D: [][3]int{{0, 0, 1}}}, // duplicate element
		{R: 3, D: [][3]int{{0, 1, 7}}}, // out of range
		{R: -3, D: nil},                // negative
	}
	for i, ins := range bad {
		if err := ins.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if err := RunningExample().Validate(); err != nil {
		t.Errorf("running example invalid: %v", err)
	}
}

// E19 / Lemma 7.3: the construction yields a valid strict (m,k)-3PS.
func TestE19StrictThreePS(t *testing.T) {
	for _, mk := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {5, 2}, {4, 3}, {6, 4}} {
		ps := NewStrictThreePS(mk[0], mk[1])
		if len(ps.Partitions) != mk[0] {
			t.Fatalf("(%d,%d): %d partitions", mk[0], mk[1], len(ps.Partitions))
		}
		for _, p := range ps.Partitions {
			for ci := 0; ci < 3; ci++ {
				if len(p[ci]) < mk[1] {
					t.Fatalf("(%d,%d): class of size %d < k", mk[0], mk[1], len(p[ci]))
				}
			}
		}
		if err := ps.IsStrict(); err != nil {
			t.Fatalf("(%d,%d): not strict: %v", mk[0], mk[1], err)
		}
	}
}

func TestThreePSBaseSize(t *testing.T) {
	// |S| = (3k+m) + m + 3 per the construction
	ps := NewStrictThreePS(4, 2)
	if ps.Base != 3*2+4+4+3 {
		t.Fatalf("base = %d", ps.Base)
	}
}

func TestStrictnessCatchesViolations(t *testing.T) {
	// hand-build a NON-strict system: two partitions sharing complements
	ps := &ThreePS{Base: 6, Partitions: [][3][]int{
		{{0, 1}, {2, 3}, {4, 5}},
		{{0, 1}, {2, 4}, {3, 5}}, // class {0,1} reused → invalid
	}}
	if err := ps.IsStrict(); err == nil {
		t.Fatalf("shared class not detected")
	}
	ps2 := &ThreePS{Base: 6, Partitions: [][3][]int{
		{{0, 1}, {2, 3}, {4, 5}},
		{{0, 2}, {1, 3}, {4, 5, 0}}, // overlap inside a partition
	}}
	if err := ps2.IsStrict(); err == nil {
		t.Fatalf("overlapping classes not detected")
	}
	// valid but not strict: {0,1},{2,3} from p1 with {4,5,0} ... build one
	// where a cross triple covers the base set
	ps3 := &ThreePS{Base: 6, Partitions: [][3][]int{
		{{0, 1}, {2, 3}, {4, 5}},
		{{0, 4}, {1, 2}, {3, 5}},
	}}
	// cross triple {2,3} ∪ {0,4} ∪ ... {2,3},{0,4},{1,5}? {1,5} not a class.
	// {0,1} ∪ {1,2}? ∪ {3,5} = {0,1,2,3,5} misses 4 — check the checker runs
	if err := ps3.IsValid(); err != nil {
		t.Fatalf("ps3 should be structurally valid: %v", err)
	}
}

// E11 / Theorem 3.4, positive direction: the Fig. 11 decomposition built
// from an exact cover is a valid pure query decomposition of width 4.
func TestE11PositiveInstance(t *testing.T) {
	ins := RunningExample()
	red, err := Build(ins)
	if err != nil {
		t.Fatal(err)
	}
	cover, ok := ins.Solve()
	if !ok {
		t.Fatal("positive instance")
	}
	d, err := red.DecompositionFromCover(cover)
	if err != nil {
		t.Fatal(err)
	}
	if err := querydecomp.Validate(d); err != nil {
		t.Fatalf("Fig. 11 decomposition invalid: %v\n%s", err, d)
	}
	if w := d.Width(); w != 4 {
		t.Fatalf("width = %d, want 4", w)
	}
	// round trip: decode the cover back from the decomposition
	decoded, err := red.DecodeCover(d)
	if err != nil {
		t.Fatalf("DecodeCover: %v", err)
	}
	if len(decoded) != len(cover) {
		t.Fatalf("decoded %v, want a %d-set cover", decoded, len(cover))
	}
}

func TestDecompositionFromCoverRejectsBadCovers(t *testing.T) {
	ins := RunningExample()
	red, _ := Build(ins)
	if _, err := red.DecompositionFromCover([]int{1}); err == nil {
		t.Errorf("short cover accepted")
	}
	if _, err := red.DecompositionFromCover([]int{0, 1}); err == nil {
		t.Errorf("overlapping cover accepted")
	}
	if _, err := red.DecompositionFromCover([]int{9, 1}); err == nil {
		t.Errorf("out-of-range index accepted")
	}
}

// The reduction hypergraph has the size promised by the construction:
// 8(s+1) block atoms, s links and 3m w-atoms.
func TestReductionSize(t *testing.T) {
	ins := RunningExample()
	red, _ := Build(ins)
	s, m := ins.R/3, len(ins.D)
	want := 8*(s+1) + s + 3*m
	if red.H.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", red.H.NumEdges(), want)
	}
}

// E11, negative direction, degenerate instance: with D = ∅ (so m = 0 and
// trivially no cover for R ≠ ∅) the reduction query must have qw > 4.
// The proof here avoids the exponential query-decomposition search: the
// polynomial k-decomp procedure shows hw(Q) = 5, and qw ≥ hw by
// Theorem 6.1(a), hence qw ≥ 5 > 4. (Mechanically: without W atoms, covering
// the base set S needs one atom of each of the four padding classes, leaving
// no room in a width-4 label for the link atom.)
func TestE11NegativeDegenerate(t *testing.T) {
	ins := Instance{R: 3, D: [][3]int{}}
	if _, ok := ins.Solve(); ok {
		t.Fatal("no cover exists with empty D")
	}
	red, err := Build(ins)
	if err != nil {
		t.Fatal(err)
	}
	w, d := decomp.Width(red.H)
	if w != 5 {
		t.Fatalf("hw(degenerate reduction) = %d, want 5", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// a budgeted direct search agrees (evidence, not proof — the full
	// exhaustive search is exponential, cf. Theorem 3.4)
	s, _ := querydecomp.NewSearcher(context.Background(), red.H, 4)
	s.MaxSteps = 50000
	if _, ok := s.Search(); ok {
		t.Fatalf("width-4 query decomposition found for a negative instance")
	}
}

// On the positive running example the reduction query admits width-4
// hypertree decompositions (k-decomp at k=4 accepts), matching qw = 4 there.
func TestReductionHypertreeWidthPositive(t *testing.T) {
	red, _ := Build(RunningExample())
	if !decomp.Decide(red.H, 4) {
		t.Fatalf("hw of the running-example reduction query exceeds 4")
	}
}

// Property: Build never fails on structurally valid instances and Solve
// agrees with an independent exhaustive subset check on tiny instances.
func TestPropertySolveAgainstSubsetEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		rElems := 3 * (1 + rng.Intn(2)) // 3 or 6
		var ds [][3]int
		for i := 0; i < rng.Intn(6); i++ {
			perm := rng.Perm(rElems)
			d := [3]int{perm[0], perm[1], perm[2]}
			ds = append(ds, d)
		}
		ins := Instance{R: rElems, D: ds}
		_, got := ins.Solve()
		want := subsetEnumerationHasCover(ins)
		if got != want {
			t.Fatalf("trial %d: Solve=%v enum=%v on %+v", trial, got, want, ins)
		}
	}
}

func subsetEnumerationHasCover(ins Instance) bool {
	n := len(ins.D)
	need := ins.R / 3
	for mask := 0; mask < 1<<n; mask++ {
		if popcount(mask) != need {
			continue
		}
		seen := make([]int, ins.R)
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			for _, x := range ins.D[i] {
				seen[x]++
				if seen[x] > 1 {
					ok = false
				}
			}
		}
		if !ok {
			continue
		}
		all := true
		for _, c := range seen {
			if c != 1 {
				all = false
			}
		}
		if all {
			return true
		}
	}
	return false
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
