package hdeval

import (
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/jointree"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// universityDB is Example 1.1 with facts making Q1 true: carol teaches
// cs101, her child ann is enrolled in cs101.
func universityDB() *relation.Database {
	db := relation.NewDatabase()
	err := db.ParseFacts(`
enrolled(ann, cs101, jan).
enrolled(bob, cs237, feb).
teaches(carol, cs101, yes).
teaches(dan, db202, no).
parent(carol, ann).
parent(dan, bob).
`)
	if err != nil {
		panic(err)
	}
	return db
}

func decompose(q *cq.Query) *decomp.Decomposition {
	h, _ := q.Hypergraph()
	_, d := decomp.Width(h)
	return d
}

// E8 / Lemma 4.6 + Example 1.1: the cyclic query Q1 ("some student is
// enrolled in a course taught by a parent") evaluated through its width-2
// hypertree decomposition.
func TestE08BooleanQ1(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, C, R), teaches(P, C, A), parent(P, S)`)
	d := decompose(q)
	if d.Width() != 2 {
		t.Fatalf("hw(Q1) = %d", d.Width())
	}
	got, err := Boolean(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatalf("Q1 is true: carol teaches cs101 and her child ann is enrolled in it")
	}

	// remove the witness: bob's course differs from dan's → false
	db2 := relation.NewDatabase()
	db2.ParseFacts(`
enrolled(bob, cs237, feb).
teaches(dan, db202, no).
parent(dan, bob).
`)
	got2, err := Boolean(db2, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got2 {
		t.Fatalf("no course is taught by a parent of an enrollee here")
	}
}

func TestEnumerateThroughDecomposition(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`ans(S, C) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).`)
	d := decompose(q)
	out, err := Enumerate(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 {
		t.Fatalf("rows = %d, want 1 (ann, cs101)", out.Rows())
	}
	naive, err := NaiveJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(naive) {
		t.Fatalf("HD evaluation disagrees with naive join")
	}
}

func TestErrorsAndEdgeCases(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, C, R)`)
	if _, err := Boolean(db, q, nil); err == nil {
		t.Fatalf("nil decomposition accepted")
	}
	// unsafe head
	qBad := cq.MustParse(`ans(Z) :- enrolled(S, C, R).`)
	d := decompose(qBad)
	if _, err := Enumerate(db, qBad, d); err == nil {
		t.Fatalf("head variable Z occurs in head only: want error")
	}
}

func TestGroundAtomGuard(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`nosuchflag(), enrolled(S, C, R), teaches(P, C, A), parent(P, S)`)
	d := decompose(q)
	got, err := Boolean(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatalf("failing ground atom must make the query false")
	}
}

// Property (E15 correctness side): on random databases, evaluation through a
// hypertree decomposition of the triangle query agrees with the naive join
// and, where applicable, with Yannakakis on acyclic queries.
func TestPropertyAgreementTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := cq.MustParse(`ans(X, Z) :- r(X,Y), s(Y,Z), t(Z,X).`)
	d := decompose(q)
	for trial := 0; trial < 50; trial++ {
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t"} {
			for i := 0; i < rng.Intn(15); i++ {
				db.AddFact(name, val(rng.Intn(5)), val(rng.Intn(5)))
			}
		}
		hdOut, err := Enumerate(db, q, d)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !hdOut.Equal(naive) {
			t.Fatalf("trial %d: HD result ≠ naive join", trial)
		}
	}
}

func TestPropertyAgreementAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := cq.MustParse(`ans(A, D) :- r(A,B), s(B,C), t(C,D).`)
	h, _ := q.Hypergraph()
	jt, ok := jointree.GYO(h)
	if !ok {
		t.Fatal("chain query is acyclic")
	}
	d := decompose(q)
	for trial := 0; trial < 50; trial++ {
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t"} {
			for i := 0; i < rng.Intn(15); i++ {
				db.AddFact(name, val(rng.Intn(5)), val(rng.Intn(5)))
			}
		}
		// three evaluation paths must agree
		hdOut, err := Enumerate(db, q, d)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		root, err := yannakakis.FromJoinTree(db, q, jt)
		if err != nil {
			t.Fatal(err)
		}
		av, _ := q.VarIndex("A")
		dv, _ := q.VarIndex("D")
		yOut := yannakakis.Enumerate(root, []int{av, dv})
		if !hdOut.Equal(naive) || !yOut.Equal(naive) {
			t.Fatalf("trial %d: evaluation strategies disagree", trial)
		}
	}
}

// Lemma 4.6 size bound: each node table has at most r^k rows.
func TestNodeTableSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`)
	d := decompose(q)
	k := d.Width()
	db := relation.NewDatabase()
	for _, name := range []string{"r", "s", "t"} {
		for i := 0; i < 20; i++ {
			db.AddFact(name, val(rng.Intn(8)), val(rng.Intn(8)))
		}
	}
	r := db.MaxRelationSize()
	root, err := FromDecomposition(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1
	for i := 0; i < k; i++ {
		bound *= r
	}
	var walk func(n *yannakakis.Node)
	walk = func(n *yannakakis.Node) {
		if n.Rows() > bound {
			t.Fatalf("node table has %d rows > r^k = %d", n.Rows(), bound)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

func val(i int) string { return string(rune('a' + i)) }

func TestEmptyLambdaNodeRejected(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, C, R)`)
	h, _ := q.Hypergraph()
	bad := &decomp.Decomposition{H: h, Root: &decomp.Node{}}
	if _, err := FromDecomposition(db, q, bad); err == nil {
		t.Fatalf("empty λ node accepted")
	}
}

func TestBooleanEnumerationPath(t *testing.T) {
	// Boolean query through Enumerate: head is empty, result is the
	// zero-column table with 0 or 1 rows.
	db := universityDB()
	q := cq.MustParse(`ans() :- enrolled(S, C, R).`)
	d := decompose(q)
	out, err := Enumerate(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 1 || len(out.Vars) != 0 {
		t.Fatalf("Boolean enumerate: rows=%d vars=%v", out.Rows(), out.Vars)
	}
	naive, err := NaiveJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(out) {
		t.Fatalf("naive and HD disagree on Boolean query")
	}
}

func TestRepeatedVariablesThroughDecomposition(t *testing.T) {
	// repeated variables within an atom act as equality selections on the
	// way into the decomposition's node tables
	db := relation.NewDatabase()
	db.ParseFacts(`e(a,a). e(a,b). f(a,a). f(b,a).`)
	q := cq.MustParse(`e(X,X), f(X,Y), e(Y,X)`)
	d := decompose(q)
	got, err := Boolean(db, q, d)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveJoin(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if got != !naive.Empty() {
		t.Fatalf("repeated-variable semantics differ: hd=%v naive=%v", got, !naive.Empty())
	}
}
