package decomp

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/hypergraph"
	"hypertree/internal/jointree"
)

func hg(src string) *hypergraph.Hypergraph {
	h, _ := cq.MustParse(src).Hypergraph()
	return h
}

// decider is NewDecider at a valid width bound, never cancelled.
func decider(h *hypergraph.Hypergraph, k int) *Decider {
	d, err := NewDecider(context.Background(), h, k)
	if err != nil {
		panic(err)
	}
	return d
}

// Paper queries.
const (
	q1 = `enrolled(S, C, R), teaches(P, C, A), parent(P, S)`
	q2 = `teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`
	q3 = `r(Y, Z), g(X, Y), s1(Y, Z, U), s2(Z, U, W), t1(Y, Z), t2(Z, U)`
	q4 = `s1(Y, Z, U), g(X, Y), t1(Z, X), s2(Z, W, X), t2(Y, Z)`
	q5 = `a(S, X, X1, C, F), b(S, Y, Y1, C1, F1), c(C, C1, Z), d(X, Z), e(Y, Z),
	      f(F, F1, Z1), g(X1, Z1), h(Y1, Z1), j(J, X, Y, X1, Y1)`
)

// E6 / Example 4.3: hw(Q1) = 2 (Fig. 6a).
func TestE06HypertreeWidthQ1(t *testing.T) {
	h := hg(q1)
	w, d := Width(h)
	if w != 2 {
		t.Fatalf("hw(Q1) = %d, want 2", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("decomposition invalid: %v", err)
	}
	if err := d.CheckNormalForm(); err != nil {
		t.Fatalf("witness tree should be in normal form (Lemma 5.13): %v", err)
	}
	if Decide(h, 1) {
		t.Fatalf("Q1 is cyclic, hw must exceed 1 (Theorem 4.5)")
	}
}

// E6 / Example 4.3: hw(Q5) = 2 (Fig. 6b).
func TestE06HypertreeWidthQ5(t *testing.T) {
	h := hg(q5)
	w, d := Width(h)
	if w != 2 {
		t.Fatalf("hw(Q5) = %d, want 2", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("decomposition invalid: %v", err)
	}
	if err := d.CheckNormalForm(); err != nil {
		t.Fatalf("not in normal form: %v", err)
	}
}

// E4-adjacent: Q4 is cyclic with qw 2; hw ≤ qw = 2 and hw > 1.
func TestHypertreeWidthQ4(t *testing.T) {
	h := hg(q4)
	w, d := Width(h)
	if w != 2 {
		t.Fatalf("hw(Q4) = %d, want 2", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// E12 / Theorem 4.5: acyclic queries are exactly the hw = 1 queries.
func TestE12AcyclicIffWidthOne(t *testing.T) {
	for _, tc := range []struct {
		src     string
		acyclic bool
	}{
		{q1, false},
		{q2, true},
		{q3, true},
		{q4, false},
		{q5, false},
		{`r(X,Y), s(Y,Z), t(Z,X)`, false},
		{`r(X,Y), s(Y,Z), t(Z,W)`, true},
		{`r(X,Y,Z), s(X,Y), t(Y,Z)`, true},
	} {
		h := hg(tc.src)
		if got := Decide(h, 1); got != tc.acyclic {
			t.Errorf("Decide(%q, 1) = %v, want %v", tc.src, got, tc.acyclic)
		}
		if got := jointree.IsAcyclic(h); got != tc.acyclic {
			t.Errorf("IsAcyclic(%q) = %v, want %v", tc.src, got, tc.acyclic)
		}
	}
}

func TestWidthOneDecompositionIsJoinTreeLike(t *testing.T) {
	h := hg(q3)
	d := decider(h, 1).Decompose()
	if d == nil {
		t.Fatalf("Q3 acyclic: want width-1 decomposition")
	}
	if d.Width() != 1 {
		t.Fatalf("width = %d", d.Width())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecideMonotoneInK(t *testing.T) {
	h := hg(q5)
	if Decide(h, 1) {
		t.Fatalf("hw(Q5) = 2, Decide(1) must fail")
	}
	for k := 2; k <= 5; k++ {
		if !Decide(h, k) {
			t.Fatalf("Decide(Q5, %d) = false, want true (monotone)", k)
		}
	}
}

func TestDecomposeCompleteness(t *testing.T) {
	h := hg(q5)
	d := decider(h, 2).Decompose()
	if d == nil {
		t.Fatal("hw(Q5) = 2")
	}
	if d.IsComplete() {
		// completeness is not guaranteed by the search, but Complete() must
		// establish it without changing the width
		t.Log("search output already complete")
	}
	cd := d.Complete()
	if !cd.IsComplete() {
		t.Fatalf("Complete() did not produce a complete decomposition")
	}
	if cd.Width() != d.Width() {
		t.Fatalf("Complete() changed width %d → %d (Lemma 4.4 forbids this)", d.Width(), cd.Width())
	}
	if err := cd.Validate(); err != nil {
		t.Fatalf("completed decomposition invalid: %v", err)
	}
	// the original is unchanged
	if err := d.Validate(); err != nil {
		t.Fatalf("Complete() mutated its receiver: %v", err)
	}
}

func TestLemma57NodeBound(t *testing.T) {
	// Lemma 5.7: an NF decomposition has at most |var(Q)| vertices.
	for _, src := range []string{q1, q2, q3, q4, q5} {
		h := hg(src)
		_, d := Width(h)
		if d.NumNodes() > h.NumVertices() {
			t.Errorf("%q: NF decomposition has %d nodes > %d vars", src, d.NumNodes(), h.NumVertices())
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	h := hg(`r(X,Y), s(Y,Z), t(Z,W)`)
	rx, _ := h.VertexIndex("X")
	ry, _ := h.VertexIndex("Y")
	rz, _ := h.VertexIndex("Z")
	rw, _ := h.VertexIndex("W")

	// Condition 1: edge t not covered.
	d1 := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(rx, ry), Lambda: bitset.Of(0), Children: []*Node{
		{Chi: bitset.Of(ry, rz), Lambda: bitset.Of(1)},
	}}}
	if err := d1.Validate(); err == nil || !strings.Contains(err.Error(), "condition 1") {
		t.Errorf("condition 1 violation not caught: %v", err)
	}

	// Condition 2: Y appears at root and grandchild but not child.
	d2 := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(rx, ry), Lambda: bitset.Of(0), Children: []*Node{
		{Chi: bitset.Of(rz, rw), Lambda: bitset.Of(2), Children: []*Node{
			{Chi: bitset.Of(ry, rz), Lambda: bitset.Of(1)},
		}},
	}}}
	if err := d2.Validate(); err == nil || !strings.Contains(err.Error(), "condition 2") {
		t.Errorf("condition 2 violation not caught: %v", err)
	}

	// Condition 3: χ contains a variable outside var(λ) at the middle node
	// (W occurs in the middle and leaf nodes, so condition 2 still holds).
	d3 := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(rx, ry), Lambda: bitset.Of(0), Children: []*Node{
		{Chi: bitset.Of(ry, rz, rw), Lambda: bitset.Of(1), Children: []*Node{
			{Chi: bitset.Of(rz, rw), Lambda: bitset.Of(2)},
		}},
	}}}
	if err := d3.Validate(); err == nil || !strings.Contains(err.Error(), "condition 3") {
		t.Errorf("condition 3 violation not caught: %v", err)
	}

	// Condition 4: var(λ(root)) ∩ χ(T_root) ⊄ χ(root): root labelled with
	// edge s but χ = {X}... build: root χ={X,Y} λ={r}, child χ={Y,Z} λ={s},
	// grandchild χ={Z,W} λ={t}; now relabel root λ={r,t}: W ∈ var(λ(root)),
	// W ∈ χ(grandchild), W ∉ χ(root).
	d4 := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(rx, ry), Lambda: bitset.Of(0, 2), Children: []*Node{
		{Chi: bitset.Of(ry, rz), Lambda: bitset.Of(1), Children: []*Node{
			{Chi: bitset.Of(rz, rw), Lambda: bitset.Of(2)},
		}},
	}}}
	if err := d4.Validate(); err == nil || !strings.Contains(err.Error(), "condition 4") {
		t.Errorf("condition 4 violation not caught: %v", err)
	}

	// A correct decomposition passes.
	good := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(rx, ry), Lambda: bitset.Of(0), Children: []*Node{
		{Chi: bitset.Of(ry, rz), Lambda: bitset.Of(1), Children: []*Node{
			{Chi: bitset.Of(rz, rw), Lambda: bitset.Of(2)},
		}},
	}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := hypergraph.New()
	if !Decide(h, 1) {
		t.Fatalf("empty hypergraph has hw 0")
	}
	w, d := Width(h)
	if w != 0 || d.Root != nil {
		t.Fatalf("Width(empty) = %d", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolatedVertices(t *testing.T) {
	h := hypergraph.New()
	h.AddVertex("L") // isolated
	h.AddEdge("r", "X", "Y")
	w, d := Width(h)
	if w != 1 {
		t.Fatalf("hw = %d, want 1", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedHypergraph(t *testing.T) {
	h := hg(`r(A,B), s(C,D), t(D,E), u(E,C)`)
	w, d := Width(h)
	if w != 2 { // the triangle s,t,u forces width 2
		t.Fatalf("hw = %d, want 2", w)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// E9 / Theorem 5.4 and Fig. 9: normalisation preserves width and validity.
func TestE09Normalize(t *testing.T) {
	h := hg(q5)
	// Build a redundant, valid decomposition: take the optimal one and
	// insert a duplicate child under the root.
	_, d := Width(h)
	dup := d.Clone()
	r := dup.Root
	extra := &Node{Chi: r.Chi.Clone(), Lambda: r.Lambda.Clone()}
	r.Children = append(r.Children, extra)
	if err := dup.Validate(); err != nil {
		t.Fatalf("test setup: duplicated decomposition should stay valid: %v", err)
	}
	if dup.CheckNormalForm() == nil {
		t.Fatalf("duplicated child should violate normal form")
	}
	nf := Normalize(dup)
	if err := nf.Validate(); err != nil {
		t.Fatalf("normalised decomposition invalid: %v", err)
	}
	if err := nf.CheckNormalForm(); err != nil {
		t.Fatalf("Normalize output not NF: %v", err)
	}
	if nf.Width() > dup.Width() {
		t.Fatalf("Normalize increased width: %d → %d", dup.Width(), nf.Width())
	}
}

func TestNormalizePanicsOnInvalid(t *testing.T) {
	h := hg(`r(X,Y), s(Y,Z)`)
	bad := &Decomposition{H: h, Root: &Node{Chi: bitset.Of(0), Lambda: bitset.Of(0)}}
	defer func() {
		if recover() == nil {
			t.Fatalf("Normalize should panic on invalid input")
		}
	}()
	Normalize(bad)
}

// E18: the parallel search agrees with the sequential one.
func TestE18ParallelAgrees(t *testing.T) {
	for _, src := range []string{q1, q2, q3, q4, q5} {
		h := hg(src)
		for k := 1; k <= 3; k++ {
			seq := Decide(h, k)
			d, _, err := Search(context.Background(), h, k, 4, 0)
			if par := err == nil; seq != par {
				t.Fatalf("%q k=%d: sequential=%v parallel=%v", src, k, seq, par)
			}
			if seq {
				if err := d.Validate(); err != nil {
					t.Fatalf("%q k=%d: parallel decomposition invalid: %v", src, k, err)
				}
				if d.Width() > k {
					t.Fatalf("width %d > k=%d", d.Width(), k)
				}
			}
		}
	}
}

func randomHG(rng *rand.Rand, nv, ne, maxArity int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for v := 0; v < nv; v++ {
		h.AddVertex(string(rune('A' + v)))
	}
	for e := 0; e < ne; e++ {
		var s bitset.Set
		for i := 0; i < 1+rng.Intn(maxArity); i++ {
			s.Add(rng.Intn(nv))
		}
		h.AddEdgeSet("e"+string(rune('a'+e)), s)
	}
	return h
}

// Property: on random hypergraphs, (i) the computed decomposition validates
// and is NF, (ii) hw=1 ⟺ acyclic, (iii) hw never exceeds edge count,
// (iv) parallel and sequential deciders agree.
func TestPropertyRandomHypergraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		h := randomHG(rng, 2+rng.Intn(7), 1+rng.Intn(6), 1+rng.Intn(4))
		w, d := Width(h)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: invalid decomposition (w=%d): %v\n%s", trial, w, err, h)
		}
		if err := d.CheckNormalForm(); err != nil {
			t.Fatalf("trial %d: not NF: %v\n%s%s", trial, err, h, d)
		}
		if (w == 1) != jointree.IsAcyclic(h) {
			t.Fatalf("trial %d: hw=1 ⟺ acyclic violated (w=%d)\n%s", trial, w, h)
		}
		if w > h.NumEdges() {
			t.Fatalf("trial %d: w=%d > m=%d", trial, w, h.NumEdges())
		}
		if _, _, err := Search(context.Background(), h, w, 3, 0); err != nil {
			t.Fatalf("trial %d: parallel rejects the true width %d: %v", trial, w, err)
		}
		if _, _, err := Search(context.Background(), h, w-1, 3, 0); w > 1 && err == nil {
			t.Fatalf("trial %d: parallel accepts k=%d below hw=%d", trial, w-1, w)
		}
	}
}

func TestRenderings(t *testing.T) {
	h := hg(q1)
	_, d := Width(h)
	s := d.String()
	if !strings.Contains(s, "χ=") || !strings.Contains(s, "λ=") {
		t.Errorf("String() = %q", s)
	}
	dot := d.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("DOT() = %q", dot)
	}
	empty := &Decomposition{H: hypergraph.New()}
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("empty String() = %q", empty.String())
	}
}

func TestDeciderStats(t *testing.T) {
	h := hg(q5)
	d := decider(h, 2)
	if !d.Decide() {
		t.Fatal("hw(Q5)=2")
	}
	if d.Calls == 0 || d.GuessOps == 0 {
		t.Errorf("stats not maintained: %+v", d)
	}
	// second Decide call should be answered from the memo
	before := d.Calls
	d.Decide()
	if d.Calls != before {
		t.Errorf("memoisation not effective across calls")
	}
}

func TestNewDeciderRejectsBadK(t *testing.T) {
	if d, err := NewDecider(context.Background(), hg(`r(X)`), 0); d != nil || !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("k=0: got %v, %v; want nil, ErrInvalidWidth", d, err)
	}
	if Decide(hg(`r(X)`), 0) {
		t.Fatal("Decide at k=0 must report false")
	}
}
