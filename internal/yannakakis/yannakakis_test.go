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

// rowNode is a join-tree node holding its atom's table row-major: the form
// the tests build trees in and reduce with hash semijoins, as the oracle for
// the columnar Node.
type rowNode struct {
	table    *relation.Table
	children []*rowNode
}

// rowTree binds each atom of an acyclic query and arranges the tables along
// the join tree; a false ground atom empties the root.
func rowTree(db *relation.Database, q *cq.Query, jt *jointree.Tree) (*rowNode, error) {
	if jt == nil {
		return nil, fmt.Errorf("nil join tree")
	}
	_, edgeToAtom := q.Hypergraph()
	nodes := make([]*rowNode, len(edgeToAtom))
	for i, ai := range edgeToAtom {
		tab, err := BindAtom(db, q, ai)
		if err != nil {
			return nil, err
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
	ok, err := GroundAtomsHold(db, q)
	if err != nil {
		return nil, err
	}
	if !ok {
		root.table = relation.NewTable(root.table.Vars)
	}
	return root, nil
}

// reduce is the row-major full reducer: hash semijoins up, then down.
func (n *rowNode) reduce() {
	var up, down func(n *rowNode)
	up = func(n *rowNode) {
		for _, c := range n.children {
			up(c)
			n.table = n.table.Semijoin(c.table)
		}
	}
	down = func(n *rowNode) {
		for _, c := range n.children {
			c.table = c.table.Semijoin(n.table)
			down(c)
		}
	}
	up(n)
	down(n)
}

// encode returns the columnar tree of n. hubFirst selects each table's
// column order: as bound, or with the first and last variables swapped,
// which moves a leading shared variable to the back and so forces the
// trie-probe and re-sorted-projection semijoin kernels.
func (n *rowNode) encode(hubFirst bool) *Node {
	order := append([]int(nil), n.table.Vars...)
	if len(order) > 1 && !hubFirst {
		order[0], order[len(order)-1] = order[len(order)-1], order[0]
	}
	out := &Node{Enc: relation.NewColumnar(n.table, order)}
	for _, c := range n.children {
		out.Children = append(out.Children, c.encode(hubFirst))
	}
	return out
}

// sameTables reports whether the columnar tree holds exactly the tables of
// the row-major one.
func sameTables(a *Node, b *rowNode) bool {
	if !a.Enc.Table().Equal(b.table) || len(a.Children) != len(b.children) {
		return false
	}
	for i := range a.Children {
		if !sameTables(a.Children[i], b.children[i]) {
			return false
		}
	}
	return true
}

// columnarTree is the tree the production passes run on for an acyclic
// query over db, encoded from the row-major one.
func columnarTree(db *relation.Database, q *cq.Query, jt *jointree.Tree) (*Node, error) {
	root, err := rowTree(db, q, jt)
	if err != nil {
		return nil, err
	}
	return root.encode(true), nil
}

// boolean and enumerate run the production passes without a deadline.
func boolean(root *Node) bool {
	ok, _ := Exists(context.Background(), root)
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

func TestReduceMakesTablesConsistent(t *testing.T) {
	db := relation.NewDatabase()
	db.ParseFacts(`
r(a, b). r(z, w).
s(b, c).
t(c, d).
`)
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,W)`)
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	Reduce(context.Background(), root)
	var sizes []int
	var walk func(n *Node)
	walk = func(n *Node) {
		sizes = append(sizes, n.Rows())
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("after full reduction every table should hold exactly the one consistent row, got %v", sizes)
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

// TestMergeSemijoinReducerAgrees is the reducer differential: Reduce over
// the merge-semijoin kernels must leave every table equal to the row-major
// hash reducer's, over star and chain trees and both encoding orders.
func TestMergeSemijoinReducerAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := []*cq.Query{
		cq.MustParse(`r(X,A), s(X,B), u(X,C), w(X,D)`),
		cq.MustParse(`r(X,Y), s(Y,Z), t(Z,W), s2(Y,V)`),
	}
	for trial := 0; trial < 40; trial++ {
		q := queries[trial%len(queries)]
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t", "u", "w", "s2"} {
			for i := 0; i < 1+rng.Intn(15); i++ {
				db.AddFact(name, val(rng.Intn(6)), val(rng.Intn(6)))
			}
		}
		hubFirst := trial%2 == 0
		rows, err := rowTree(db, q, treeFor(q))
		if err != nil {
			t.Fatal(err)
		}
		mergeRoot := rows.encode(hubFirst)
		Reduce(context.Background(), mergeRoot)
		rows.reduce()
		if !sameTables(mergeRoot, rows) {
			t.Fatalf("trial %d (hubFirst=%v): merge and hash reducers disagree", trial, hubFirst)
		}
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
