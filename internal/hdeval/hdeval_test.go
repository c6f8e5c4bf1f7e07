package hdeval

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/bitset"
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

// boolean decides q on db through a fresh evaluator over d.
func boolean(db *relation.Database, q *cq.Query, d *decomp.Decomposition) (bool, error) {
	e, err := NewEvaluator(q, d, nil)
	if err != nil {
		return false, err
	}
	return decide(context.Background(), e, db, 1)
}

// enumerate answers q on db through a fresh evaluator over d.
func enumerate(db *relation.Database, q *cq.Query, d *decomp.Decomposition) (*relation.Table, error) {
	e, err := NewEvaluator(q, d, nil)
	if err != nil {
		return nil, err
	}
	return materialize(answersOf(context.Background(), e, db, 1, e.head))
}

// answersOf runs e on db the one way a plan does: the node tables, then the
// answer cursor over head (nil: the Boolean query's).
func answersOf(ctx context.Context, e *Evaluator, db *relation.Database, workers int, head []int) (*yannakakis.Answers, error) {
	root, err := e.Root(ctx, db, workers)
	if err != nil {
		return nil, err
	}
	return yannakakis.NewAnswers(ctx, root, head)
}

// decide is answersOf with a nil head: whether the query holds on db.
func decide(ctx context.Context, e *Evaluator, db *relation.Database, workers int) (bool, error) {
	a, err := answersOf(ctx, e, db, workers, nil)
	if err != nil {
		return false, err
	}
	return a.Count() > 0, nil
}

// materialize drains an answer cursor into its table.
func materialize(a *yannakakis.Answers, err error) (*relation.Table, error) {
	if err != nil {
		return nil, err
	}
	return a.Materialize()
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
	got, err := boolean(db, q, d)
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
	got2, err := boolean(db2, q, d)
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
	out, err := enumerate(db, q, d)
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
	if _, err := boolean(db, q, nil); err == nil {
		t.Fatalf("nil decomposition accepted")
	}
	// unsafe head
	qBad := cq.MustParse(`ans(Z) :- enrolled(S, C, R).`)
	d := decompose(qBad)
	if _, err := enumerate(db, qBad, d); err == nil {
		t.Fatalf("head variable Z occurs in head only: want error")
	}
}

func TestGroundAtomGuard(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`nosuchflag(), enrolled(S, C, R), teaches(P, C, A), parent(P, S)`)
	d := decompose(q)
	got, err := boolean(db, q, d)
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
		hdOut, err := enumerate(db, q, d)
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
		hdOut, err := enumerate(db, q, d)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		yOut := oracleAnswer(t, db, q, jt)
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
	e, err := NewEvaluator(q, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := e.Root(context.Background(), db, 1)
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

// A decomposition node that has no table — an empty λ, or a χ variable no λ
// relation binds — is rejected when the evaluator is built, by name, not on
// the first execution.
func TestEmptyLambdaNodeRejected(t *testing.T) {
	q := cq.MustParse(`enrolled(S, C, R)`)
	h, _ := q.Hypergraph()
	bad := &decomp.Decomposition{H: h, Root: &decomp.Node{}}
	_, err := NewEvaluator(q, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "χ{} λ{}") || !strings.Contains(err.Error(), "empty λ") {
		t.Fatalf("empty λ node: err = %v, want it rejected by name", err)
	}
}

func TestUncoveredChiNodeRejected(t *testing.T) {
	q := cq.MustParse(`r(X,Y), s(Y,Z)`)
	h, _ := q.Hypergraph()
	vx, _ := q.VarIndex("X")
	vy, _ := q.VarIndex("Y")
	vz, _ := q.VarIndex("Z")
	// The root's χ holds all three variables but its λ only r: Z ∉ var(λ).
	// Complete() attaches ⟨χ={Y,Z}, λ={s}⟩ below it, which is fine.
	bad := &decomp.Decomposition{H: h, Root: &decomp.Node{
		Chi:    bitset.Of(vx, vy, vz),
		Lambda: bitset.Of(0),
	}}
	_, err := NewEvaluator(q, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "χ{X,Y,Z} λ{r}") || !strings.Contains(err.Error(), "outside var(λ)") {
		t.Fatalf("χ ⊄ var(λ) node: err = %v, want it rejected by name", err)
	}
}

func TestBooleanEnumerationPath(t *testing.T) {
	// Boolean query through Enumerate: head is empty, result is the
	// zero-column table with 0 or 1 rows.
	db := universityDB()
	q := cq.MustParse(`ans() :- enrolled(S, C, R).`)
	d := decompose(q)
	out, err := enumerate(db, q, d)
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
	got, err := boolean(db, q, d)
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

// Multi-relation bags over empty, unit and tiny relations run the same
// leapfrog path as large ones, on one worker and on four, with and
// without a ground atom beside them; a false ground atom empties the
// columnar root.
func TestTinyAndEmptyBags(t *testing.T) {
	ctx := context.Background()
	queries := []*cq.Query{
		cq.MustParse(`ans(X, Z) :- r(X,Y), s(Y,Z), t(Z,X).`),
		cq.MustParse(`r(X,Y), s(Y,Z), t(Z,X)`),
		cq.MustParse(`ans(X) :- flag(), r(X,Y), s(Y,Z), t(Z,X).`),
	}
	rng := rand.New(rand.NewSource(29))
	for _, q := range queries {
		e, err := NewEvaluator(q, decompose(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		leapfrogs := 0
		for _, info := range e.Nodes() {
			if info.Kernel == "leapfrog" {
				leapfrogs++
			}
		}
		if leapfrogs == 0 {
			t.Fatalf("%s: no multi-relation bag in %v", q, e.Nodes())
		}
		for _, rows := range []int{0, 1, 2, 4} {
			for _, empty := range []string{"", "r", "s", "t"} {
				for _, flag := range []bool{true, false} {
					db := relation.NewDatabase()
					for _, name := range []string{"r", "s", "t"} {
						db.AddRelation(name, 2)
						for i := 0; i < rows && name != empty; i++ {
							db.AddFact(name, val(rng.Intn(2)), val(rng.Intn(2)))
						}
					}
					if flag {
						db.AddFact("flag")
					}
					want, err := NaiveJoin(db, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := materialize(answersOf(ctx, e, db, 1, e.head))
					if err != nil {
						t.Fatal(err)
					}
					gotPar, err := materialize(answersOf(ctx, e, db, 4, e.head))
					if err != nil {
						t.Fatal(err)
					}
					ok, err := decide(ctx, e, db, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) || !gotPar.Equal(want) || ok != !want.Empty() {
						t.Fatalf("%s, %d rows, empty=%q, flag=%v: %d answers (4 workers %d, Boolean %v), naive has %d",
							q, rows, empty, flag, got.Rows(), gotPar.Rows(), ok, want.Rows())
					}
					root, err := e.Root(ctx, db, 1)
					if err != nil {
						t.Fatal(err)
					}
					if groundFalse := !flag && len(q.Atoms) == 4; groundFalse && root.Rows() != 0 {
						t.Fatalf("%s: false ground atom left %d rows in the root", q, root.Rows())
					}
				}
			}
		}
	}
}

// A query of ground atoms only has no decomposition tree: its root is the
// 0-ary table, true iff every ground atom holds.
func TestGroundOnlyQuery(t *testing.T) {
	ctx := context.Background()
	db := relation.NewDatabase()
	db.AddFact("flag")
	db.AddFact("e", "a", "b")
	for src, want := range map[string]bool{
		`flag()`:           true,
		`flag(), e(a, b)`:  true,
		`flag(), e(b, a)`:  false,
		`noflag(), flag()`: false,
	} {
		q := cq.MustParse(src)
		h, _ := q.Hypergraph()
		e, err := NewEvaluator(q, &decomp.Decomposition{H: h}, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, err := decide(ctx, e, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := materialize(answersOf(ctx, e, db, 1, e.head))
		if err != nil {
			t.Fatal(err)
		}
		if got != want || len(ans.Vars) != 0 || (ans.Rows() == 1) != want {
			t.Fatalf("%s: Boolean %v, %d answer rows; want %v", src, got, ans.Rows(), want)
		}
	}
}
