package yannakakis

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/jointree"
	"hypertree/internal/relation"
)

// universityDB is the Example 1.1 schema with a few facts.
func universityDB() *relation.Database {
	db := relation.NewDatabase()
	err := db.ParseFacts(`
enrolled(ann, cs101, jan).
enrolled(bob, cs237, feb).
enrolled(eve, db202, mar).
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

func treeFor(q *cq.Query) *jointree.Tree {
	h, _ := q.Hypergraph()
	t, ok := jointree.GYO(h)
	if !ok {
		panic("query not acyclic")
	}
	return t
}

// columnarTree is the tree the production passes run on for an acyclic
// query over db: each atom bound and encoded in its bound column order, the
// nodes arranged along the join tree; a false ground atom empties the root.
func columnarTree(db *relation.Database, q *cq.Query, jt *jointree.Tree) (*Node, error) {
	if jt == nil {
		return nil, fmt.Errorf("nil join tree")
	}
	_, edgeToAtom := q.Hypergraph()
	nodes := make([]*Node, len(edgeToAtom))
	for i, ai := range edgeToAtom {
		tab, err := BindAtom(db, q, ai)
		if err != nil {
			return nil, err
		}
		nodes[i] = &Node{Enc: relation.NewColumnar(tab, tab.Vars)}
	}
	var root *Node
	for i, p := range jt.Parent {
		if p < 0 {
			root = nodes[i]
		} else {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		}
	}
	ok, err := GroundAtomsHold(db, q)
	if err != nil {
		return nil, err
	}
	if !ok {
		root.Clear()
	}
	return root, nil
}

// boolean and enumerate run the production passes without a deadline.
func boolean(root *Node) bool {
	ok, _ := exists(context.Background(), root)
	return ok
}

func enumerate(root *Node, head []int) *relation.Table {
	a, err := NewAnswers(context.Background(), root, head)
	if err != nil {
		panic(err)
	}
	t, _ := a.Materialize()
	return t
}

// Q2 of Example 1.1: is there a professor with a child enrolled in some
// course? True in universityDB via carol/ann (different courses allowed).
func TestBooleanQ2True(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !boolean(root) {
		t.Fatalf("Q2 should be true on the university database")
	}
}

func TestBooleanFalse(t *testing.T) {
	db := universityDB()
	// nobody teaches a course their own parent is enrolled in reverse roles
	q := cq.MustParse(`teaches(P, C, A), parent(S, P)`) // S is a parent of a professor
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if boolean(root) {
		t.Fatalf("no professor has a recorded parent")
	}
}

func TestConstantsInQuery(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, cs101, R)`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !boolean(root) {
		t.Fatalf("someone is enrolled in cs101")
	}
	q2 := cq.MustParse(`enrolled(S, zz999, R)`)
	root2, _ := columnarTree(db, q2, treeFor(q2))
	if boolean(root2) {
		t.Fatalf("zz999 has no enrollment")
	}
}

func TestMissingRelationIsEmpty(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`nosuch(X), enrolled(X, C, R)`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if boolean(root) {
		t.Fatalf("missing relation must evaluate as empty")
	}
}

func TestGroundAtoms(t *testing.T) {
	db := universityDB()
	db.AddFact("flag")
	q := cq.MustParse(`flag(), enrolled(S, C, R)`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !boolean(root) {
		t.Fatalf("flag() holds and enrolled is non-empty")
	}
	q2 := cq.MustParse(`missingflag(), enrolled(S, C, R)`)
	root2, err := columnarTree(db, q2, treeFor(q2))
	if err != nil {
		t.Fatal(err)
	}
	if boolean(root2) {
		t.Fatalf("missingflag() fails, query must be false")
	}
}

func TestEnumeratePath(t *testing.T) {
	db := relation.NewDatabase()
	db.ParseFacts(`
e1(a, b). e1(a, c).
e2(b, x). e2(c, x). e2(c, y).
`)
	q := cq.MustParse(`ans(X, Z) :- e1(X, Y), e2(Y, Z).`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	xv, _ := q.VarIndex("X")
	zv, _ := q.VarIndex("Z")
	out := enumerate(root, []int{xv, zv})
	// answers: (a,x) via b and via c, (a,y) via c → {(a,x),(a,y)}
	if out.Rows() != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", out.Rows(), out.StringWith(db, q.VarName))
	}
}

// The test-side full reducer, reduceRef, is the reference the descent, the
// cursor and the root package's reduced walks are held to, so it is pinned
// here: after it, every table of a tree holds exactly its projection of the
// naive join of the whole tree (global consistency), and the row counts are
// the ones worked out by hand. Beside a chain, the shapes are those where a
// semijoin has an edge: a child sharing no variable with its parent (alive
// and empty), an empty child, an empty parent, and a node over no
// variables, whose one empty row must survive a live child and only a live
// one.
func TestReduceMakesTablesConsistent(t *testing.T) {
	db := relation.NewDatabase()
	db.ParseFacts(`
r(a, b). r(z, w).
s(b, c).
t(c, d).
`)
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,W)`)
	chain, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	v := func(xs ...int) []relation.Value {
		out := make([]relation.Value, len(xs))
		for i, x := range xs {
			out[i] = relation.Value(x)
		}
		return out
	}
	one := [][]relation.Value{{}} // the empty row of a node over no variables
	cases := []struct {
		name string
		root *Node
		tree *tnode // nil: root is the chain
		rows []int  // reduced row counts in preorder
	}{
		{"chain", chain, nil, []int{1, 1, 1}},
		{"disjoint live child", nil, &tnode{vars: []int{0}, rows: [][]relation.Value{v(1), v(2)}, children: []*tnode{
			{vars: []int{5, 6}, rows: [][]relation.Value{v(7, 8)}},
		}}, []int{2, 1}},
		{"disjoint empty child", nil, &tnode{vars: []int{0}, rows: [][]relation.Value{v(1), v(2)}, children: []*tnode{
			{vars: []int{5, 6}},
		}}, []int{0, 0}},
		{"empty child", nil, &tnode{vars: []int{0, 1}, rows: [][]relation.Value{v(1, 1), v(2, 2)}, children: []*tnode{
			{vars: []int{1, 2}, rows: [][]relation.Value{v(1, 5), v(2, 6)}},
			{vars: []int{0, 3}},
		}}, []int{0, 0, 0}},
		{"empty parent", nil, &tnode{vars: []int{0, 1}, children: []*tnode{
			{vars: []int{1, 2}, rows: [][]relation.Value{v(1, 5), v(2, 6)}},
		}}, []int{0, 0}},
		{"0-ary root, live child", nil, &tnode{rows: one, children: []*tnode{
			{vars: []int{0, 1}, rows: [][]relation.Value{v(1, 2), v(3, 4)}},
		}}, []int{1, 2}},
		{"0-ary root, empty child", nil, &tnode{rows: one, children: []*tnode{{vars: []int{0, 1}}}}, []int{0, 0}},
		{"0-ary node between live ones", nil, &tnode{vars: []int{0}, rows: [][]relation.Value{v(1), v(2)}, children: []*tnode{
			{rows: one, children: []*tnode{{vars: []int{4}, rows: [][]relation.Value{v(9)}}}},
		}}, []int{2, 1, 1}},
	}
	for _, tc := range cases {
		root := tc.root
		if tc.tree != nil {
			root = tc.tree.build()
		}
		join := relation.TrueTable()
		var nodes []*Node
		var walk func(n *Node)
		walk = func(n *Node) {
			nodes = append(nodes, n)
			join = join.Join(n.Enc.Table())
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(root)
		reduceRef(root)
		for i, n := range nodes {
			if n.Rows() != tc.rows[i] {
				t.Fatalf("%s: node %d over %v holds %d rows after the reducer, want %d", tc.name, i, n.Vars(), n.Rows(), tc.rows[i])
			}
			if want := join.Project(n.Vars()); !n.Enc.Table().Equal(want) {
				t.Fatalf("%s: node %d over %v is not the naive join projected onto it", tc.name, i, n.Vars())
			}
		}
	}
}

func randomChainDB(rng *rand.Rand, n int) *relation.Database {
	db := relation.NewDatabase()
	rels := []string{"r", "s", "t"}
	for _, name := range rels {
		for i := 0; i < n; i++ {
			db.AddFact(name, val(rng.Intn(6)), val(rng.Intn(6)))
		}
	}
	return db
}

func val(i int) string { return string(rune('a' + i)) }

// Property: Boolean agrees with the brute-force join result, and Enumerate
// agrees with the nested join, on random chain queries.
func TestPropertyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := cq.MustParse(`ans(X, W) :- r(X,Y), s(Y,Z), t(Z,W).`)
	for trial := 0; trial < 50; trial++ {
		db := randomChainDB(rng, 1+rng.Intn(10))
		root, err := columnarTree(db, q, treeFor(q))
		if err != nil {
			t.Fatal(err)
		}
		// brute force over all substitutions via nested joins
		want := bruteForce(db, q)
		gotBool := boolean(root)
		if gotBool != !want.Empty() {
			t.Fatalf("trial %d: Boolean=%v brute=%v", trial, gotBool, !want.Empty())
		}
		root2, _ := columnarTree(db, q, treeFor(q))
		xv, _ := q.VarIndex("X")
		wv, _ := q.VarIndex("W")
		got := enumerate(root2, []int{xv, wv})
		if !got.Equal(want) {
			t.Fatalf("trial %d: Enumerate mismatch", trial)
		}
	}
}

func bruteForce(db *relation.Database, q *cq.Query) *relation.Table {
	acc := relation.TrueTable()
	for i := range q.Atoms {
		tab, err := BindAtom(db, q, i)
		if err != nil {
			panic(err)
		}
		acc = acc.Join(tab)
	}
	xv, _ := q.VarIndex("X")
	wv, _ := q.VarIndex("W")
	return acc.Project([]int{xv, wv})
}

func TestFromJoinTreeErrors(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, C, R)`)
	if _, err := columnarTree(db, q, nil); err == nil {
		t.Fatalf("nil join tree accepted")
	}
}

// A child whose encoding does not lead with the variables it shares with
// its parent is re-keyed by permuting its columns (Columnar.Reorder), no
// row-major table in between: here a three-column child encoded (X, Y, Z)
// hangs under a parent over (Y, Z), so the key is its last two columns and
// the branch is certainly taken.
func TestEnumerateRekeysChildOnTrailingColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, src := range []string{`ans(X, Y, Z) :- e(Y, Z), t3(X, Y, Z).`, `ans(Z, X) :- e(Y, Z), t3(X, Y, Z).`, `ans(Y) :- e(Y, Z), t3(X, Y, Z).`} {
		q := cq.MustParse(src)
		var head, xyz []int
		for _, a := range q.Head.Args {
			v, _ := q.VarIndex(a.Name)
			head = append(head, v)
		}
		for _, name := range []string{"X", "Y", "Z"} {
			v, _ := q.VarIndex(name)
			xyz = append(xyz, v)
		}
		for trial := 0; trial < 20; trial++ {
			db := relation.NewDatabase()
			for i := 0; i < 2+rng.Intn(12); i++ {
				db.AddFact("e", val(rng.Intn(4)), val(rng.Intn(4)))
			}
			for i := 0; i < 2+rng.Intn(30); i++ {
				db.AddFact("t3", val(rng.Intn(4)), val(rng.Intn(4)), val(rng.Intn(4)))
			}
			e, _ := BindAtom(db, q, 0)
			t3, _ := BindAtom(db, q, 1)
			root := &Node{
				Enc:      relation.NewColumnar(e, e.Vars),
				Children: []*Node{{Enc: relation.NewColumnar(t3, xyz)}},
			}
			if got, want := enumerate(root, head), e.Join(t3).Project(head); !got.Equal(want) {
				t.Fatalf("%s trial %d: %d answers, the hash join has %d", src, trial, got.Rows(), want.Rows())
			}
		}
	}
}
