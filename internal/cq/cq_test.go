package cq

import (
	"strings"
	"testing"
)

func TestParseQ1(t *testing.T) {
	// Example 1.1, query Q1.
	q, err := Parse(`ans() :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsBoolean() {
		t.Errorf("Q1 is Boolean")
	}
	if len(q.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(q.Atoms))
	}
	if q.NumVars() != 5 { // S C R P A
		t.Fatalf("vars = %d, want 5", q.NumVars())
	}
	if q.Atoms[0].Pred != "enrolled" || len(q.Atoms[0].Args) != 3 {
		t.Fatalf("first atom = %v", q.Atoms[0])
	}
}

func TestParseHeadless(t *testing.T) {
	q, err := Parse(`r(X,Y), s(Y,Z)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head != nil || len(q.Atoms) != 2 {
		t.Fatalf("headless parse wrong: %v", q)
	}
}

func TestParseNonBoolean(t *testing.T) {
	q := MustParse(`ans(X, Z) :- r(X,Y), s(Y,Z).`)
	if q.IsBoolean() {
		t.Errorf("query with head vars is not Boolean")
	}
	if hv := q.HeadVars(); hv.Len() != 2 {
		t.Errorf("head vars = %v", hv)
	}
}

func TestParseConstantsAndStrings(t *testing.T) {
	q := MustParse(`r(X, alice, "new york", 5, _Tmp)`)
	a := q.Atoms[0]
	wantVar := []bool{true, false, false, false, true}
	for i, w := range wantVar {
		if a.Args[i].IsVar != w {
			t.Errorf("arg %d (%s): IsVar = %v, want %v", i, a.Args[i].Name, a.Args[i].IsVar, w)
		}
	}
	if a.Args[2].Name != "new york" {
		t.Errorf("string literal = %q", a.Args[2].Name)
	}
	if q.NumVars() != 2 {
		t.Errorf("vars = %d, want 2", q.NumVars())
	}
}

func TestParsePrimedVariables(t *testing.T) {
	// The paper writes variables like X' and Z'.
	q := MustParse(`f(F, F', Z'), g(X', Z')`)
	if q.NumVars() != 4 {
		t.Fatalf("vars = %d, want 4 (%v)", q.NumVars(), q.varNames)
	}
	if _, ok := q.VarIndex("Z'"); !ok {
		t.Fatalf("Z' not parsed as a variable")
	}
}

func TestParseComments(t *testing.T) {
	q := MustParse("% query Q2\nans() :- teaches(P,C,A), # second\n enrolled(S,C2,R), parent(P,S).")
	if len(q.Atoms) != 3 {
		t.Fatalf("atoms = %d, want 3", len(q.Atoms))
	}
}

func TestParseArrowVariant(t *testing.T) {
	q := MustParse(`ans(X) <- r(X)`)
	if q.Head == nil || q.Head.Pred != "ans" {
		t.Fatalf("head not parsed with <-")
	}
}

func TestParseZeroArityAtom(t *testing.T) {
	q := MustParse(`p(), q(X)`)
	if len(q.Atoms[0].Args) != 0 {
		t.Fatalf("p() should have no args")
	}
	if q.VarsOf(0).Len() != 0 {
		t.Fatalf("var(p()) should be empty")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`r(X`,
		`r(X))`,
		`r(X,)`,
		`r(X) s(Y)`,
		`:- r(X)`,
		`ans() :-`,
		`r(X). trailing`,
		`r("unterminated)`,
		`123(X)`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParse should panic on bad input")
		}
	}()
	MustParse(`r(`)
}

func TestVarsOfRepeatedVariable(t *testing.T) {
	q := MustParse(`r(X, Y, X)`)
	if q.VarsOf(0).Len() != 2 {
		t.Fatalf("var(r(X,Y,X)) should have 2 variables")
	}
}

func TestHypergraphConstruction(t *testing.T) {
	q := MustParse(`ans() :- r(X,Y), s(Y,Z), t(Z,X).`)
	h, edgeToAtom := q.Hypergraph()
	if h.NumEdges() != 3 || h.NumVertices() != 3 {
		t.Fatalf("H(Q): %d edges %d vertices", h.NumEdges(), h.NumVertices())
	}
	if len(edgeToAtom) != 3 || edgeToAtom[2] != 2 {
		t.Fatalf("edgeToAtom = %v", edgeToAtom)
	}
	// variable indices agree between query and hypergraph
	for v := 0; v < q.NumVars(); v++ {
		if h.VertexName(v) != q.VarName(v) {
			t.Fatalf("vertex %d name mismatch", v)
		}
	}
}

func TestHypergraphSkipsGroundAtoms(t *testing.T) {
	q := MustParse(`r(X,Y), flag(on), s(Y)`)
	h, edgeToAtom := q.Hypergraph()
	if h.NumEdges() != 2 {
		t.Fatalf("ground atom should not yield an edge")
	}
	if edgeToAtom[1] != 2 {
		t.Fatalf("edgeToAtom = %v, want [0 2]", edgeToAtom)
	}
}

func TestAtomLabelDisambiguation(t *testing.T) {
	q := MustParse(`s(Y,Z,U), s(Z,U,W), t(Y,Z)`)
	if q.AtomLabel(0) == q.AtomLabel(1) {
		t.Errorf("duplicate predicates need distinct labels")
	}
	if q.AtomLabel(2) != "t" {
		t.Errorf("unique predicate should keep its name, got %q", q.AtomLabel(2))
	}
}

func TestQueryString(t *testing.T) {
	q := MustParse(`ans(X) :- r(X,Y), s(Y,b).`)
	s := q.String()
	if !strings.Contains(s, "ans(X)") || !strings.Contains(s, "r(X,Y)") || !strings.HasSuffix(s, ".") {
		t.Errorf("String = %q", s)
	}
	q2 := MustParse(`r(X)`)
	if !strings.HasPrefix(q2.String(), "ans() :-") {
		t.Errorf("headless String = %q", q2.String())
	}
	if _, err := Parse(q2.String()); err != nil {
		t.Errorf("headless String does not reparse: %v", err)
	}
	// constants that would misparse bare must come back quoted
	q3 := MustParse(`r(X, "Upper"), s(X, "two words")`)
	s3 := q3.String()
	if !strings.Contains(s3, `"Upper"`) || !strings.Contains(s3, `"two words"`) {
		t.Errorf("constants not re-quoted: %q", s3)
	}
	if CanonicalForm(MustParse(s3)) != CanonicalForm(q3) {
		t.Errorf("constant round trip changed canonical form: %q", s3)
	}
}

func TestCanonicalQuery(t *testing.T) {
	q := MustParse(`r(B,A), s(A,C)`)
	h, _ := q.Hypergraph()
	canon := CanonicalQuery(h)
	if len(canon.Atoms) != 2 {
		t.Fatalf("canonical query atoms = %d", len(canon.Atoms))
	}
	// arguments in lexicographic order
	if canon.Atoms[0].String() != "r(A,B)" {
		t.Errorf("canonical atom = %s, want r(A,B)", canon.Atoms[0])
	}
	// round trip: the canonical query's hypergraph matches the original
	h2, _ := canon.Hypergraph()
	if h2.NumEdges() != h.NumEdges() || h2.NumVertices() != h.NumVertices() {
		t.Errorf("canonical round trip changed sizes")
	}
}
