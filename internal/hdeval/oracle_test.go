package hdeval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/jointree"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// This file keeps the row-major Yannakakis that acyclic plans ran before a
// join tree became a width-1 decomposition of the one evaluator — every atom
// bound afresh, hash semijoins over string keys, bottom-up hash joins with
// a deduplicating projection — as the oracle the columnar path is checked
// against, next to the naive join; and the full reducer over the
// evaluator's own trees (reduceRef), whose reduced walk the answer cursor
// is held to row for row.

// rowNode is a join-tree node holding its atom's table row-major.
type rowNode struct {
	table    *relation.Table
	children []*rowNode
}

// rowTree binds each atom of an acyclic query and arranges the tables along
// the join tree; a false ground atom empties the root.
func rowTree(t *testing.T, db *relation.Database, q *cq.Query, jt *jointree.Tree) *rowNode {
	t.Helper()
	_, edgeToAtom := q.Hypergraph()
	nodes := make([]*rowNode, len(edgeToAtom))
	for i, ai := range edgeToAtom {
		tab, err := yannakakis.BindAtom(db, q, ai)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &rowNode{table: tab}
	}
	var root *rowNode
	for i, p := range jt.Parent {
		if p < 0 {
			root = nodes[i]
		} else {
			nodes[p].children = append(nodes[p].children, nodes[i])
		}
	}
	ok, err := yannakakis.GroundAtomsHold(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		root.table = relation.NewTable(root.table.Vars)
	}
	return root
}

// semijoinRef is the reference semijoin t ⋉ u: t's rows, in t's order,
// whose values on the shared variables occur in some row of u — a hash
// filter over the shared columns. With no shared variable it keeps all of t
// exactly when u is non-empty.
func semijoinRef(t, u *relation.Table) *relation.Table {
	var tc, uc []int
	for i, v := range t.Vars {
		if j := slices.Index(u.Vars, v); j >= 0 {
			tc, uc = append(tc, i), append(uc, j)
		}
	}
	key := func(row []relation.Value, cols []int) string {
		k := make([]relation.Value, len(cols))
		for i, c := range cols {
			k[i] = row[c]
		}
		return fmt.Sprint(k)
	}
	inU := map[string]bool{}
	for r := range u.Rows() {
		inU[key(u.Row(r), uc)] = true
	}
	var data []relation.Value
	kept := 0
	for r := range t.Rows() {
		if inU[key(t.Row(r), tc)] {
			data = append(data, t.Row(r)...)
			kept++
		}
	}
	switch {
	case len(t.Vars) > 0:
		return relation.NewTableOf(t.Vars, data)
	case kept > 0:
		return relation.TrueTable() // NewTableOf needs a variable
	default:
		return relation.NewTable(nil)
	}
}

// reduceRef is Yannakakis' full reducer over the evaluator's columnar
// tree: semijoins up, then down, each node re-encoded in its own column
// order. The filter keeps the sorted rows' order, so a reduced node is its
// encoding minus the rows no answer extends.
func reduceRef(root *yannakakis.Node) {
	semijoin := func(dst, src *yannakakis.Node) {
		dst.Enc = relation.NewColumnar(semijoinRef(dst.Enc.Table(), src.Enc.Table()), dst.Enc.Vars)
	}
	var up, down func(n *yannakakis.Node)
	up = func(n *yannakakis.Node) {
		for _, c := range n.Children {
			up(c)
			semijoin(n, c)
		}
	}
	down = func(n *yannakakis.Node) {
		for _, c := range n.Children {
			semijoin(c, n)
			down(c)
		}
	}
	up(root)
	down(root)
}

// oracleReduce is the full reducer over row-major tables.
func oracleReduce(n *rowNode) {
	for _, c := range n.children {
		oracleReduce(c)
		n.table = semijoinRef(n.table, c.table)
	}
}

func oracleReduceDown(n *rowNode) {
	for _, c := range n.children {
		c.table = semijoinRef(c.table, n.table)
		oracleReduceDown(c)
	}
}

// oracleEnumerate joins the fully reduced subtrees bottom-up, projecting
// away at every node what is neither a head variable nor the node's own.
func oracleEnumerate(root *rowNode, head []int) *relation.Table {
	oracleReduce(root)
	oracleReduceDown(root)
	inHead := map[int]bool{}
	for _, v := range head {
		inHead[v] = true
	}
	var up func(n *rowNode) *relation.Table
	up = func(n *rowNode) *relation.Table {
		t := n.table
		own := map[int]bool{}
		for _, v := range t.Vars {
			own[v] = true
		}
		for _, c := range n.children {
			t = t.Join(up(c))
		}
		var keep []int
		for _, v := range t.Vars {
			if inHead[v] || own[v] {
				keep = append(keep, v)
			}
		}
		return t.Project(keep)
	}
	return up(root).Project(head)
}

// oracleAnswer evaluates q on db through the row-major path: the answer
// table (the 0-ary true/false table for a Boolean head).
func oracleAnswer(t *testing.T, db *relation.Database, q *cq.Query, jt *jointree.Tree) *relation.Table {
	t.Helper()
	head, err := HeadVars(q)
	if err != nil {
		t.Fatal(err)
	}
	if jt == nil { // only ground atoms
		ok, err := yannakakis.GroundAtomsHold(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return relation.TrueTable()
		}
		return relation.NewTable(nil)
	}
	return oracleEnumerate(rowTree(t, db, q, jt), head)
}

// width1 builds the evaluator an acyclic plan runs: the query's join tree as
// a width-1 decomposition (the construction of compilePlan).
func width1(t *testing.T, q *cq.Query) (*Evaluator, *jointree.Tree) {
	t.Helper()
	h, _ := q.Hypergraph()
	jt, ok := jointree.GYO(h)
	if !ok {
		t.Fatalf("%s is cyclic", q)
	}
	var parent []int
	if jt != nil {
		parent = jt.Parent
	}
	e, err := NewEvaluator(q, decomp.FromJoinTree(h, parent), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e, jt
}

// adversarialAcyclic lists the query shapes that stress what the columnar
// width-1 path does differently from the row-major one, over the relations
// of adversarialDB.
var adversarialAcyclic = []string{
	// a repeated variable inside an atom is an equality selection
	`ans(X, Y) :- e(X, X), f(X, Y).`,
	`e(X, X), f(X, Y), e(Y, Y)`,
	// constants, known and unknown to the database
	`ans(Y) :- e(a, Y), f(Y, Z).`,
	`ans(X) :- e(X, b), f(b, Z).`,
	`ans(X) :- e(X, zzz), f(X, Y).`,
	`e(a, b)`,
	// empty and absent relations
	`ans(X) :- e(X, Y), empty(Y, Z).`,
	`ans(X) :- e(X, Y), absent(Y, Z).`,
	`empty(X, Y)`,
	// ground atoms, true and false, next to variable atoms and alone
	`ans(X) :- flag(), e(X, Y), f(Y, Z).`,
	`ans(X) :- noflag(), e(X, Y), f(Y, Z).`,
	`e(X, Y), e(c, d9)`,
	`flag()`,
	`noflag()`,
	// children sharing no variable with their parent
	`ans(X, Z) :- e(X, Y), f(Z, W).`,
	`ans(Y, W) :- e(X, Y), f(Z, W), g(U, V).`,
	`e(X, Y), f(Z, W)`,
	// single atoms
	`ans(X) :- e(X, Y).`,
	`ans(Y, X) :- e(X, Y).`,
	`ans(X, Y, Z) :- t3(X, Y, Z).`,
	`ans(Z) :- t3(X, Y, Z).`,
	// heads that drop join variables: dedup, and folding below the root
	`ans(X, W) :- e(X, Y), f(Y, Z), g(Z, W).`,
	`ans(X) :- e(X, Y), f(Y, Z), g(Z, W).`,
	`ans(Z) :- e(X, Y), f(Y, Z), g(Z, W).`,
	`ans(W, X) :- e(X, Y), f(Y, Z), g(Z, W), e(W, V).`,
	`ans(A, B) :- e(C, A), f(C, B), g(C, D).`,
	`ans(A, D) :- e(C, A), f(C, B), g(B, D), t3(D, E, F).`,
	`ans(Y) :- t3(X, Y, Z), e(X, U), f(Z, V).`,
	// heads that keep everything, in a permuted order
	`ans(W, Z, Y, X) :- e(X, Y), f(Y, Z), g(Z, W).`,
	`ans(X, Y, Z) :- t3(X, Y, Z), e(X, Y), f(Y, Z).`,
	// a three-column atom sharing its last two columns with the other
	`ans(X, Y, Z) :- e(Y, Z), t3(X, Y, Z).`,
	`ans(X) :- e(Y, Z), t3(X, Y, Z).`,
	// Boolean heads
	`e(X, Y), f(Y, Z), g(Z, W)`,
	`ans() :- e(X, Y), f(Y, X).`,
	// atoms over the same variables, and one relation used twice
	`ans(X, Y) :- e(X, Y), f(X, Y).`,
	`ans(X, Y) :- e(X, Y), e(Y, X).`,
}

// adversarialDB draws small random e, f, g (binary) and t3 (ternary) over a
// few constants, declares empty without tuples, leaves absent undeclared,
// and sets the 0-ary flag.
func adversarialDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase()
	c := func() string { return string(rune('a' + rng.Intn(5))) }
	for _, name := range []string{"e", "f", "g"} {
		for i := 0; i < 3+rng.Intn(14); i++ {
			db.AddFact(name, c(), c())
		}
	}
	for i := 0; i < 3+rng.Intn(20); i++ {
		db.AddFact("t3", c(), c(), c())
	}
	db.AddRelation("empty", 2)
	db.AddFact("flag")
	return db
}

// The proof obligation for running join trees through this evaluator: on
// the acyclic half of gen.KernelCases and on the adversarial shapes, for 1
// and 4 workers, the width-1 columnar path returns exactly the answers of
// the row-major Yannakakis it replaced and of the naive join. Run under
// -race in CI.
func TestWidth1MatchesRowMajorYannakakis(t *testing.T) {
	type testCase struct {
		name string
		q    *cq.Query
		db   *relation.Database
	}
	var cases []testCase
	for _, kc := range gen.KernelCases(2024, 42) {
		if !kc.Cyclic {
			cases = append(cases, testCase{kc.Name, kc.Q, kc.DB})
		}
	}
	if len(cases) < 10 {
		t.Fatalf("only %d acyclic kernel cases", len(cases))
	}
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 3; round++ {
		db := adversarialDB(rng)
		for _, src := range adversarialAcyclic {
			cases = append(cases, testCase{src, cq.MustParse(src), db})
		}
	}
	ctx := context.Background()
	for _, tc := range cases {
		naive, err := NaiveJoin(tc.db, tc.q)
		if err != nil {
			t.Fatalf("%s: naive: %v", tc.name, err)
		}
		e, jt := width1(t, tc.q)
		for _, info := range e.Nodes() {
			if info.Kernel != "scan" {
				t.Fatalf("%s: width-1 node runs %q, want a scan", tc.name, info.Kernel)
			}
		}
		if want := oracleAnswer(t, tc.db, tc.q, jt); !want.Equal(naive) {
			t.Fatalf("%s: row-major oracle disagrees with the naive join", tc.name)
		}
		for _, workers := range []int{1, 4} {
			// twice: cold encodings, then the cached ones
			for pass := 0; pass < 2; pass++ {
				got, err := materialize(answersOf(ctx, e, tc.db, workers, e.head))
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
				}
				if !got.Equal(naive) {
					t.Fatalf("%s workers=%d pass %d: %d answers over %v, naive has %d over %v",
						tc.name, workers, pass, got.Rows(), got.Vars, naive.Rows(), naive.Vars)
				}
				ok, err := decide(ctx, e, tc.db, workers)
				if err != nil {
					t.Fatal(err)
				}
				if ok != !naive.Empty() {
					t.Fatalf("%s workers=%d: Boolean = %v, naive has %d answers", tc.name, workers, ok, naive.Rows())
				}
			}
		}
	}
}

// A database mutated in place between two executions of one evaluator must
// not be answered from the encodings cached before the mutation.
func TestWidth1SeesInPlaceInsert(t *testing.T) {
	db := relation.NewDatabase()
	if err := db.ParseFacts(`e(a, b). f(b, c).`); err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse(`ans(X, Z) :- e(X, Y), f(Y, Z).`)
	e, _ := width1(t, q)
	ctx := context.Background()
	for i, facts := range []string{``, `f(b, d).`, `e(k, b).`, `newrel(x).`} {
		if err := db.ParseFacts(facts); err != nil {
			t.Fatal(err)
		}
		got, err := materialize(answersOf(ctx, e, db, 1, e.head))
		if err != nil {
			t.Fatal(err)
		}
		want, err := NaiveJoin(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("after insert %d: %d answers, want %d", i, got.Rows(), want.Rows())
		}
	}
}

// The answer cursor on the adversarial shapes, for 1 and 4 workers: Count
// is the naive row count, and Next's first k rows (k ∈ {0, 1, 10, all})
// followed by Materialize's rest are, row for row, the walk of the same
// tree after the full reducer — the path the cursor replaced; the Boolean
// descent is true exactly when the reduced root is non-empty. The
// gen.KernelCases × decomposer half of this obligation is
// TestAnswersCursorEquivalence in the root package.
func TestAnswersCursorOnAdversarialShapes(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	for round := 0; round < 3; round++ {
		db := adversarialDB(rng)
		for _, src := range adversarialAcyclic {
			q := cq.MustParse(src)
			naive, err := NaiveJoin(db, q)
			if err != nil {
				t.Fatal(err)
			}
			e, _ := width1(t, q)
			for _, workers := range []int{1, 4} {
				reduced, err := e.Root(ctx, db, workers)
				if err != nil {
					t.Fatal(err)
				}
				reduceRef(reduced)
				ref, err := materialize(yannakakis.NewAnswers(ctx, reduced, e.head))
				if err != nil || !ref.Equal(naive) {
					t.Fatalf("%s: the reduced walk disagrees with the naive join (%v)", src, err)
				}
				if ok, err := decide(ctx, e, db, workers); err != nil || ok != (reduced.Rows() > 0) {
					t.Fatalf("%s workers=%d: Boolean = %v, %v; the reduced root holds %d rows", src, workers, ok, err, reduced.Rows())
				}
				for _, k := range []int{0, 1, 10, naive.Rows()} {
					a, err := answersOf(ctx, e, db, workers, e.head)
					if err != nil {
						t.Fatal(err)
					}
					if a.Count() != naive.Rows() {
						t.Fatalf("%s workers=%d: Count = %d, naive has %d answers", src, workers, a.Count(), naive.Rows())
					}
					var got []relation.Value
					n := 0
					for ; n < k; n++ {
						row, ok := a.Next()
						if !ok {
							break
						}
						got = append(got, row...)
					}
					rest, err := a.Materialize()
					if err != nil {
						t.Fatal(err)
					}
					for i := range rest.Rows() {
						got = append(got, rest.Row(i)...)
					}
					var want []relation.Value
					for i := range ref.Rows() {
						want = append(want, ref.Row(i)...)
					}
					if n+rest.Rows() != ref.Rows() || !slices.Equal(got, want) {
						t.Fatalf("%s workers=%d k=%d: the cursor's rows are not the reduced walk's", src, workers, k)
					}
				}
			}
		}
	}
}

// Local consistency on the adversarial shapes, each as written and as its
// Boolean body, for 1 and 4 workers: after the full reducer every node
// table — narrowed to the columns the rest of its tree reads — equals the
// naive join of the whole body projected onto that table's own columns.
// The gen.KernelCases × decomposer half of this invariant is
// TestReducedNodeTablesAreLocallyConsistent in the root package.
func TestReducedNodeTablesAreLocallyConsistentOnAdversarialShapes(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 3; round++ {
		db := adversarialDB(rng)
		for _, src := range adversarialAcyclic {
			q := cq.MustParse(src)
			all := make([]cq.Term, q.NumVars())
			for v := range all {
				all[v] = cq.Var(q.VarName(v))
			}
			join, err := NaiveJoin(db, cq.NewQuery(&cq.Atom{Pred: "ans", Args: all}, q.Atoms))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []*cq.Query{q, cq.NewQuery(nil, q.Atoms)} {
				e, _ := width1(t, q)
				for _, workers := range []int{1, 4} {
					root, err := e.Root(ctx, db, workers)
					if err != nil {
						t.Fatal(err)
					}
					reduceRef(root)
					var check func(n *yannakakis.Node)
					check = func(n *yannakakis.Node) {
						if want := join.Project(n.Vars()); !n.Enc.Table().Equal(want) {
							t.Fatalf("%s workers=%d: reduced node table over %v holds %d rows, the naive join projected onto it %d",
								q, workers, n.Vars(), n.Rows(), want.Rows())
						}
						for _, c := range n.Children {
							check(c)
						}
					}
					check(root)
				}
			}
		}
	}
}
