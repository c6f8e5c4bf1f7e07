package querydecomp

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/jointree"
)

func hg(src string) *hypergraph.Hypergraph {
	h, _ := cq.MustParse(src).Hypergraph()
	return h
}

const (
	q1 = `enrolled(S, C, R), teaches(P, C, A), parent(P, S)`
	q2 = `teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`
	q3 = `r(Y, Z), g(X, Y), s1(Y, Z, U), s2(Z, U, W), t1(Y, Z), t2(Z, U)`
	q4 = `s1(Y, Z, U), g(X, Y), t1(Z, X), s2(Z, W, X), t2(Y, Z)`
	q5 = `a(S, X, X1, C, F), b(S, Y, Y1, C1, F1), c(C, C1, Z), d(X, Z), e(Y, Z),
	      f(F, F1, Z1), g(X1, Z1), h(Y1, Z1), j(J, X, Y, X1, Y1)`
)

// E2 / Fig. 2: qw(Q1) = 2.
func TestE02QueryWidthQ1(t *testing.T) {
	h := hg(q1)
	w, d := Width(h, 1)
	if w != 2 {
		t.Fatalf("qw(Q1) = %d, want 2 (Fig. 2)", w)
	}
	if err := Validate(d); err != nil {
		t.Fatalf("returned decomposition invalid: %v", err)
	}
}

// E4 / Fig. 4: qw(Q4) = 2, witnessed by a pure decomposition.
func TestE04QueryWidthQ4(t *testing.T) {
	h := hg(q4)
	w, d := Width(h, 1)
	if w != 2 {
		t.Fatalf("qw(Q4) = %d, want 2 (Fig. 4)", w)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
}

// E5 / Fig. 5 and Section 3.3: qw(Q5) = 3, and Q5 has no width-2
// query decomposition even though hw(Q5) = 2.
func TestE05QueryWidthQ5(t *testing.T) {
	h := hg(q5)
	s2, _ := NewSearcher(context.Background(), h, 2)
	if _, ok := s2.Search(); ok {
		t.Fatalf("Q5 must not have a width-2 query decomposition")
	}
	if !s2.Exhausted {
		t.Fatalf("width-2 search should have been exhaustive")
	}
	s3, _ := NewSearcher(context.Background(), h, 3)
	d, ok := s3.Search()
	if !ok {
		t.Fatalf("qw(Q5) = 3: width-3 search must succeed")
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 3 {
		t.Fatalf("width = %d, want 3", d.Width())
	}
}

// Acyclic queries have query-width 1 (Section 3.1: a join tree is a width-1
// query decomposition).
func TestAcyclicQueryWidthOne(t *testing.T) {
	for _, src := range []string{q2, q3, `r(X,Y)`, `r(A,B), s(B,C), t(C,D)`} {
		h := hg(src)
		w, d := Width(h, 1)
		if w != 1 {
			t.Errorf("qw(%q) = %d, want 1", src, w)
			continue
		}
		if err := Validate(d); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// E13 / Theorem 6.1(a): hw(Q) ≤ qw(Q); and (b): hw(Q5) < qw(Q5).
func TestE13HwLeQw(t *testing.T) {
	for _, src := range []string{q1, q2, q3, q4, q5, `r(X,Y), s(Y,Z), t(Z,X)`} {
		h := hg(src)
		hw, _ := decomp.Width(h)
		qw, _ := Width(h, hw) // Theorem 6.1a justifies the lower bound
		if hw > qw {
			t.Errorf("%q: hw=%d > qw=%d violates Theorem 6.1(a)", src, hw, qw)
		}
	}
	h5 := hg(q5)
	hw, _ := decomp.Width(h5)
	qw, _ := Width(h5, hw)
	if !(hw == 2 && qw == 3) {
		t.Errorf("Q5: hw=%d qw=%d, want 2 < 3 (Theorem 6.1(b))", hw, qw)
	}
}

// A pure query decomposition is a hypertree decomposition with χ = var(λ)
// (proof of Theorem 6.1a): search results must pass the Def. 4.1 validator.
func TestQueryDecompositionIsHypertreeDecomposition(t *testing.T) {
	for _, src := range []string{q1, q4, q5} {
		h := hg(src)
		_, d := Width(h, 1)
		if err := d.Validate(); err != nil {
			t.Errorf("%q: QD fails HD validation: %v", src, err)
		}
	}
}

func TestValidateRejectsBadDecompositions(t *testing.T) {
	h := hg(`r(A,B), s(B,C), t(C,D)`)

	node := func(chiNames []string, lambda ...int) *decomp.Node {
		var chi bitset.Set
		for _, n := range chiNames {
			i, _ := h.VertexIndex(n)
			chi.Add(i)
		}
		return &decomp.Node{Chi: chi, Lambda: bitset.FromSlice(lambda)}
	}

	// missing atom t (condition 1)
	d1 := &decomp.Decomposition{H: h, Root: node([]string{"A", "B"}, 0)}
	d1.Root.Children = []*decomp.Node{node([]string{"B", "C"}, 1)}
	if err := Validate(d1); err == nil {
		t.Errorf("missing atom not detected")
	}

	// impure: χ ≠ var(λ)
	d2 := &decomp.Decomposition{H: h, Root: node([]string{"A", "B", "C"}, 0)}
	d2.Root.Children = []*decomp.Node{node([]string{"B", "C"}, 1), node([]string{"C", "D"}, 2)}
	if err := Validate(d2); err == nil {
		t.Errorf("impure decomposition not detected")
	}

	// atom occurrence disconnected: r at root and leaf, not between
	d3 := &decomp.Decomposition{H: h, Root: node([]string{"A", "B"}, 0)}
	mid := node([]string{"B", "C"}, 1)
	leaf := node([]string{"A", "B", "C", "D"}, 0, 2) // r reappears
	mid.Children = []*decomp.Node{leaf}
	d3.Root.Children = []*decomp.Node{mid}
	if err := Validate(d3); err == nil {
		t.Errorf("disconnected atom occurrences not detected")
	}

	// variable disconnected: B in root and grandchild labels only
	d4 := &decomp.Decomposition{H: h, Root: node([]string{"A", "B"}, 0)}
	mid4 := node([]string{"C", "D"}, 2)
	leaf4 := node([]string{"B", "C"}, 1)
	mid4.Children = []*decomp.Node{leaf4}
	d4.Root.Children = []*decomp.Node{mid4}
	if err := Validate(d4); err == nil {
		t.Errorf("disconnected variable not detected")
	}

	// a correct width-1 decomposition (join tree shape) passes
	good := &decomp.Decomposition{H: h, Root: node([]string{"A", "B"}, 0)}
	m := node([]string{"B", "C"}, 1)
	m.Children = []*decomp.Node{node([]string{"C", "D"}, 2)}
	good.Root.Children = []*decomp.Node{m}
	if err := Validate(good); err != nil {
		t.Errorf("valid decomposition rejected: %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	h := hg(q5)
	s, _ := NewSearcher(context.Background(), h, 2)
	s.MaxSteps = 3
	if _, ok := s.Search(); ok {
		t.Fatalf("budgeted search found a width-2 QD of Q5 (impossible)")
	}
	if s.Exhausted {
		t.Fatalf("with MaxSteps=3 the search cannot be exhaustive")
	}
}

func TestEmptyAndSingleAtom(t *testing.T) {
	w, d := Width(hypergraph.New(), 1)
	if w != 0 {
		t.Fatalf("qw(empty) = %d", w)
	}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	h := hg(`r(X,Y,Z)`)
	w, d = Width(h, 1)
	if w != 1 || d.NumNodes() != 1 {
		t.Fatalf("single atom: w=%d nodes=%d", w, d.NumNodes())
	}
}

// Property: on random small hypergraphs the search (i) returns only valid
// decompositions, (ii) satisfies hw ≤ qw, (iii) finds width 1 exactly on
// acyclic inputs.
func TestPropertyRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		h := randomHG(rng, 2+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(3))
		hw, _ := decomp.Width(h)
		qw, d := Width(h, 1)
		if err := Validate(d); err != nil {
			t.Fatalf("trial %d: invalid: %v\n%s", trial, err, h)
		}
		if hw > qw {
			t.Fatalf("trial %d: hw %d > qw %d\n%s", trial, hw, qw, h)
		}
		if (qw == 1) != jointree.IsAcyclic(h) {
			t.Fatalf("trial %d: qw=1 ⟺ acyclic violated (qw=%d)\n%s", trial, qw, h)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: QD fails HD conditions: %v", trial, err)
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

func TestNewSearcherRejectsBadK(t *testing.T) {
	if s, err := NewSearcher(context.Background(), hg(`r(X)`), 0); s != nil || !errors.Is(err, decomp.ErrInvalidWidth) {
		t.Fatalf("k=0: got %v, %v; want nil, ErrInvalidWidth", s, err)
	}
}
