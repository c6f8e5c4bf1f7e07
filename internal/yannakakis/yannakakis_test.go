package yannakakis

import (
	"context"
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

// Q2 of Example 1.1: is there a professor with a child enrolled in some
// course? True in universityDB via carol/ann (different courses allowed).
func TestBooleanQ2True(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`)
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !Boolean(root) {
		t.Fatalf("Q2 should be true on the university database")
	}
}

func TestBooleanFalse(t *testing.T) {
	db := universityDB()
	// nobody teaches a course their own parent is enrolled in reverse roles
	q := cq.MustParse(`teaches(P, C, A), parent(S, P)`) // S is a parent of a professor
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if Boolean(root) {
		t.Fatalf("no professor has a recorded parent")
	}
}

func TestConstantsInQuery(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, cs101, R)`)
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !Boolean(root) {
		t.Fatalf("someone is enrolled in cs101")
	}
	q2 := cq.MustParse(`enrolled(S, zz999, R)`)
	root2, _ := FromJoinTree(db, q2, treeFor(q2))
	if Boolean(root2) {
		t.Fatalf("zz999 has no enrollment")
	}
}

func TestMissingRelationIsEmpty(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`nosuch(X), enrolled(X, C, R)`)
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if Boolean(root) {
		t.Fatalf("missing relation must evaluate as empty")
	}
}

func TestGroundAtoms(t *testing.T) {
	db := universityDB()
	db.AddFact("flag")
	q := cq.MustParse(`flag(), enrolled(S, C, R)`)
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if !Boolean(root) {
		t.Fatalf("flag() holds and enrolled is non-empty")
	}
	q2 := cq.MustParse(`missingflag(), enrolled(S, C, R)`)
	root2, err := FromJoinTree(db, q2, treeFor(q2))
	if err != nil {
		t.Fatal(err)
	}
	if Boolean(root2) {
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
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	xv, _ := q.VarIndex("X")
	zv, _ := q.VarIndex("Z")
	out := Enumerate(root, []int{xv, zv})
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
	root, err := FromJoinTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	Reduce(context.Background(), root, 1)
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
		root, err := FromJoinTree(db, q, treeFor(q))
		if err != nil {
			t.Fatal(err)
		}
		// brute force over all substitutions via nested joins
		want := bruteForce(db, q)
		gotBool := Boolean(root)
		if gotBool != !want.Empty() {
			t.Fatalf("trial %d: Boolean=%v brute=%v", trial, gotBool, !want.Empty())
		}
		root2, _ := FromJoinTree(db, q, treeFor(q))
		xv, _ := q.VarIndex("X")
		wv, _ := q.VarIndex("W")
		got := Enumerate(root2, []int{xv, wv})
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

// E18: the parallel reducer computes the same tables as the sequential one.
func TestE18ParallelReduceAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := cq.MustParse(`r(X,Y), s(Y,Z), t(Z,W), s2(Y, V), t2(V, U)`)
	for trial := 0; trial < 30; trial++ {
		db := relation.NewDatabase()
		for _, name := range []string{"r", "s", "t", "s2", "t2"} {
			for i := 0; i < 1+rng.Intn(12); i++ {
				db.AddFact(name, val(rng.Intn(5)), val(rng.Intn(5)))
			}
		}
		seqRoot, err := FromJoinTree(db, q, treeFor(q))
		if err != nil {
			t.Fatal(err)
		}
		parRoot, _ := FromJoinTree(db, q, treeFor(q))
		Reduce(context.Background(), seqRoot, 1)
		Reduce(context.Background(), parRoot, 4)
		var cmp func(a, b *Node) bool
		cmp = func(a, b *Node) bool {
			if !a.Materialize().Equal(b.Materialize()) || len(a.Children) != len(b.Children) {
				return false
			}
			for i := range a.Children {
				if !cmp(a.Children[i], b.Children[i]) {
					return false
				}
			}
			return true
		}
		if !cmp(seqRoot, parRoot) {
			t.Fatalf("trial %d: parallel and sequential reducers disagree", trial)
		}
	}
}

func TestFromJoinTreeErrors(t *testing.T) {
	db := universityDB()
	q := cq.MustParse(`enrolled(S, C, R)`)
	if _, err := FromJoinTree(db, q, nil); err == nil {
		t.Fatalf("nil join tree accepted")
	}
}

// attachEncs walks the tree encoding every table. hubFirst selects the
// column order: the shared (hub) variable first — making the node
// merge-aligned with its neighbours — or last, which forces the trie-probe
// kernel on one side of each semijoin.
func attachEncs(n *Node, hubFirst bool) {
	order := append([]int(nil), n.Table.Vars...)
	if len(order) > 1 && !hubFirst {
		order[0], order[len(order)-1] = order[len(order)-1], order[0]
	}
	n.Enc = relation.NewColumnar(n.Table, order)
	n.Table = n.Enc.Table()
	for _, c := range n.Children {
		attachEncs(c, hubFirst)
	}
}

// TestMergeSemijoinReducerAgrees is the reducer differential: with
// encodings attached, Reduce (1 and 4 workers) over the merge-semijoin kernel
// must leave every table equal to the hash reducer's, over star and chain
// trees and both encoding orders.
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
		mergeRoot, err := FromJoinTree(db, q, treeFor(q))
		if err != nil {
			t.Fatal(err)
		}
		hashRoot, _ := FromJoinTree(db, q, treeFor(q))
		parRoot, _ := FromJoinTree(db, q, treeFor(q))
		attachEncs(mergeRoot, hubFirst)
		attachEncs(hashRoot, hubFirst)
		attachEncs(parRoot, hubFirst)
		Reduce(context.Background(), mergeRoot, 1)
		Reduce(context.Background(), parRoot, 4)
		DisableMergeSemijoin.Store(true)
		Reduce(context.Background(), hashRoot, 1)
		DisableMergeSemijoin.Store(false)
		var cmp func(a, b *Node) bool
		cmp = func(a, b *Node) bool {
			if !a.Materialize().Equal(b.Materialize()) || len(a.Children) != len(b.Children) {
				return false
			}
			if a.Enc != nil && !a.Enc.Table().Equal(a.Materialize()) {
				return false
			}
			for i := range a.Children {
				if !cmp(a.Children[i], b.Children[i]) {
					return false
				}
			}
			return true
		}
		if !cmp(mergeRoot, hashRoot) {
			t.Fatalf("trial %d (hubFirst=%v): merge and hash reducers disagree", trial, hubFirst)
		}
		if !cmp(parRoot, hashRoot) {
			t.Fatalf("trial %d (hubFirst=%v): parallel merge reducer disagrees", trial, hubFirst)
		}
	}
}
