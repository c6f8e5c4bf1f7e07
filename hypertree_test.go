package hypertree

import (
	"context"
	"errors"
	"strings"
	"testing"

	"hypertree/internal/gen"
)

// evaluate compiles q under strategy s and executes it on db.
func evaluate(db *Database, q *Query, s Strategy) (*Table, error) {
	p, err := Compile(q, WithStrategy(s))
	if err != nil {
		return nil, err
	}
	return p.Execute(context.Background(), db)
}

func TestFacadeWidths(t *testing.T) {
	for _, tc := range []struct {
		src string
		hw  int
	}{
		{gen.Q1Src, 2},
		{gen.Q2Src, 1},
		{gen.Q5Src, 2},
	} {
		w, d := HypergraphWidth(QueryHypergraph(MustParseQuery(tc.src)))
		if w != tc.hw {
			t.Errorf("hw(%q) = %d, want %d", tc.src, w, tc.hw)
		}
		if err := ValidateHD(d); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestFacadeAcyclicity(t *testing.T) {
	if IsAcyclic(MustParseQuery(gen.Q1Src)) {
		t.Errorf("Q1 is cyclic")
	}
	q2 := MustParseQuery(gen.Q2Src)
	if !IsAcyclic(q2) {
		t.Errorf("Q2 is acyclic")
	}
	if _, ok := QueryJoinTree(q2); !ok {
		t.Errorf("Q2 must have a join tree")
	}
}

func TestFacadeQueryWidth(t *testing.T) {
	q5 := MustParseQuery(gen.Q5Src)
	w, d, err := QueryWidth(q5)
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Errorf("qw(Q5) = %d, want 3", w)
	}
	if err := ValidateQD(d); err != nil {
		t.Error(err)
	}
	res := SearchQueryDecomposition(q5, 2, 0)
	if res.Found || !res.Exhausted || res.Err != nil {
		t.Errorf("no width-2 QD of Q5 exists: %+v", res)
	}
}

// A width bound below 1 is a typed error, not a panic.
func TestSearchQueryDecompositionRejectsBadK(t *testing.T) {
	for _, k := range []int{0, -1} {
		res := SearchQueryDecomposition(MustParseQuery(gen.Q5Src), k, 0)
		if res.Found || !errors.Is(res.Err, ErrInvalidWidth) {
			t.Errorf("k=%d: got %+v, want ErrInvalidWidth", k, res)
		}
	}
}

func TestFacadeEvaluation(t *testing.T) {
	db := NewDatabase()
	if err := db.ParseFacts(`
enrolled(ann, cs1, jan).
teaches(bob, cs1, yes).
parent(bob, ann).
`); err != nil {
		t.Fatal(err)
	}
	q1 := MustParseQuery(gen.Q1Src)
	for _, s := range []Strategy{StrategyAuto, StrategyNaive, StrategyHypertree} {
		got, err := evaluate(db, q1, s)
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if got.Empty() {
			t.Errorf("strategy %d: Q1 should be true", s)
		}
	}
	p, err := Compile(q1)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.ExecuteBoolean(context.Background(), db); err != nil || !ok {
		t.Fatalf("ExecuteBoolean: %v %v", ok, err)
	}
	// acyclic strategy on cyclic query must error
	if _, err := evaluate(db, q1, StrategyAcyclic); err == nil {
		t.Errorf("StrategyAcyclic on cyclic query should fail")
	}
	// non-Boolean query
	qh := MustParseQuery(`ans(S) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).`)
	tab, err := evaluate(db, qh, StrategyAuto)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 1 {
		t.Errorf("answer rows = %d, want 1", tab.Rows())
	}
}

func TestFacadeEvaluateWith(t *testing.T) {
	db := NewDatabase()
	db.ParseFacts(`r(a,b). s(b,c). t(c,a).`)
	q := MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X)`)
	d, err := Decompose(q, 2)
	if err != nil {
		t.Fatalf("triangle has hw 2: %v", err)
	}
	if err := ValidateHD(d); err != nil {
		t.Fatal(err)
	}
	p, err := Compile(q, WithDecomposer(KDecomposer()), WithMaxWidth(2))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.ExecuteBoolean(context.Background(), db); err != nil || !ok {
		t.Fatalf("triangle closed: ok=%v err=%v", ok, err)
	}
	if _, err := Decompose(q, 0); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("Decompose(q, 0) = %v, want ErrInvalidWidth", err)
	}
}

// KDecomposer honours Workers: at 4 workers its root guesses fan out, and
// the plan still names k-decomp.
func TestFacadeParallel(t *testing.T) {
	q := MustParseQuery(gen.Q5Src)
	p, err := Compile(q, WithStrategy(StrategyHypertree), WithMaxWidth(2), WithWorkers(4))
	if err != nil {
		t.Fatalf("hw(Q5) = 2: %v", err)
	}
	if err := ValidateHD(p.Decomposition()); err != nil {
		t.Fatal(err)
	}
	if p.DecomposerName() != "k-decomp" {
		t.Fatalf("DecomposerName = %q, want k-decomp", p.DecomposerName())
	}
	if _, err := Compile(q, WithStrategy(StrategyHypertree), WithMaxWidth(1), WithWorkers(4)); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("Q5 is cyclic: want ErrWidthExceeded, got %v", err)
	}
	if _, err := KDecomposer().Decompose(context.Background(), QueryHypergraph(q), DecomposeRequest{MaxWidth: -1, Workers: 4}); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("k=-1: want ErrInvalidWidth, got %v", err)
	}
	if ok, err := DecideWidth(q, 2); err != nil || !ok {
		t.Fatalf("DecideWidth(Q5, 2) = %v, %v", ok, err)
	}
}

func TestFacadeCanonicalQuery(t *testing.T) {
	q := MustParseQuery(gen.Q1Src)
	h := QueryHypergraph(q)
	canon := CanonicalQuery(h)
	// Theorem A.7: hw of the canonical query equals hw of the hypergraph
	w1, _ := HypergraphWidth(h)
	w2, _ := HypergraphWidth(QueryHypergraph(canon))
	if w1 != w2 {
		t.Errorf("hw(H) = %d but hw(cq(H)) = %d", w1, w2)
	}
}

func TestFacadeNormalize(t *testing.T) {
	q := MustParseQuery(gen.Q5Src)
	_, d := HypergraphWidth(QueryHypergraph(q))
	nf := Normalize(d)
	if err := nf.CheckNormalForm(); err != nil {
		t.Fatal(err)
	}
}

// E7 / Fig. 7: the atom representation shows '_' exactly for the projected
// out variables.
func TestE07AtomRepresentation(t *testing.T) {
	q := MustParseQuery(gen.Q5Src)
	_, d := HypergraphWidth(QueryHypergraph(q))
	s := AtomRepresentation(q, d)
	if !strings.Contains(s, "_") {
		t.Errorf("width-2 decomposition of Q5 must project out some variables:\n%s", s)
	}
	if !strings.Contains(s, "{") || strings.Count(s, "\n") != d.NumNodes() {
		t.Errorf("one line per node expected:\n%s", s)
	}
	if got := AtomRepresentation(q, nil); !strings.Contains(got, "empty") {
		t.Errorf("nil decomposition rendering: %q", got)
	}
	if dot := DOT(d); !strings.Contains(dot, "digraph") {
		t.Errorf("DOT rendering broken")
	}
	if cl := ChiLambdaRepresentation(d); !strings.Contains(cl, "χ=") {
		t.Errorf("χ/λ rendering broken")
	}
}

func TestGroundOnlyQueries(t *testing.T) {
	db := NewDatabase()
	db.AddFact("flag")
	q := MustParseQuery(`flag()`)
	for _, s := range []Strategy{StrategyAuto, StrategyAcyclic, StrategyHypertree, StrategyNaive} {
		got, err := evaluate(db, q, s)
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if got.Empty() {
			t.Errorf("strategy %d: flag() holds", s)
		}
	}
	p, err := Compile(MustParseQuery(`noflag()`))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.ExecuteBoolean(context.Background(), db); err != nil || ok {
		t.Fatalf("noflag() should be false")
	}
}
