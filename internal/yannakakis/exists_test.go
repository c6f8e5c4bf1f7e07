package yannakakis

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// tnode is a test tree node: a table over vars — a set, whatever repeats
// rows holds — encoded under order (a permutation of vars; nil keeps vars),
// and its children.
type tnode struct {
	vars, order []int
	rows        [][]relation.Value
	children    []*tnode
}

// build encodes the test tree afresh — reduceRef rewrites a tree in place.
// A node over no variables holds the empty row when rows is non-empty.
func (n *tnode) build() *Node {
	var data []relation.Value
	for _, r := range n.rows {
		data = append(data, r...)
	}
	order := n.order
	if order == nil {
		order = n.vars
	}
	tab := relation.NewTable(nil)
	switch {
	case len(n.vars) > 0:
		tab = relation.NewTableOf(n.vars, data)
	case len(n.rows) > 0:
		tab = relation.TrueTable()
	}
	out := &Node{Enc: relation.NewColumnar(tab, order).Distinct()}
	for _, c := range n.children {
		out.Children = append(out.Children, c.build())
	}
	return out
}

// join is the naive join of every table of the tree.
func (n *tnode) join() *relation.Table {
	t := n.build().Enc.Table()
	for _, c := range n.children {
		t = t.Join(c.join())
	}
	return t
}

// shuffled returns a copy of the tree with every column order permuted,
// which forces the re-keying of encodings whose key is not their prefix.
func (n *tnode) shuffled(rng *rand.Rand) *tnode {
	out := *n
	out.order = slices.Clone(n.vars)
	rng.Shuffle(len(out.order), func(i, j int) { out.order[i], out.order[j] = out.order[j], out.order[i] })
	out.children = nil
	for _, c := range n.children {
		out.children = append(out.children, c.shuffled(rng))
	}
	return &out
}

// path returns the tree r0(X0,X1) — r1(X1,X2) — … of depth nodes, each over
// n rows (i, i) for i < n; kill drops the leaf's rows, so no row extends,
// and witness adds one path of values above every other, so its rows sort
// last in every table.
func path(depth, n int, kill, witness bool) *tnode {
	var root, cur *tnode
	for d := range depth {
		t := &tnode{vars: []int{d, d + 1}}
		for i := range n {
			if !kill || d < depth-1 {
				t.rows = append(t.rows, []relation.Value{relation.Value(i), relation.Value(i)})
			}
		}
		if witness {
			t.rows = append(t.rows, []relation.Value{relation.Value(n + 10), relation.Value(n + 10)})
		}
		if root == nil {
			root = t
		} else {
			cur.children = append(cur.children, t)
		}
		cur = t
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

// reduceRef is Yannakakis' full reducer, the reference the descent and
// the answer cursor are held to: semijoins up the tree, then down, each
// node re-encoded in its own column order. The filter keeps the sorted
// rows' order, so a reduced node is its encoding minus the rows no answer
// extends.
func reduceRef(root *Node) {
	semijoin := func(dst, src *Node) {
		dst.Enc = relation.NewColumnar(semijoinRef(dst.Enc.Table(), src.Enc.Table()), dst.Enc.Vars)
	}
	var up, down func(n *Node)
	up = func(n *Node) {
		for _, c := range n.Children {
			up(c)
			semijoin(n, c)
		}
	}
	down = func(n *Node) {
		for _, c := range n.Children {
			semijoin(c, n)
			down(c)
		}
	}
	up(root)
	down(root)
}

// exists decides the Boolean query of the tree under root: the answer
// cursor with an empty head, the first-witness descent.
func exists(ctx context.Context, root *Node) (bool, error) {
	a, err := NewAnswers(ctx, root, nil)
	if err != nil {
		return false, err
	}
	return a.Count() > 0, nil
}

// reduceExists is the reference the Boolean descent is held to: the full
// reducer, then a non-empty root.
func reduceExists(n *tnode) bool {
	root := n.build()
	reduceRef(root)
	return root.Rows() > 0
}

// The Boolean descent against the reducer on the shapes where a first-witness descent
// can go wrong: an empty child, a witness only in the last root row, no
// witness at all behind live-looking prefixes, a deep path either way, a
// dead run looked up a second time (its memo), a run whose live row comes
// last, a child sharing no variable with its parent, and a childless root.
// Each shape also runs with every encoding's columns shuffled, and under
// every head of heads the count must be positive exactly when the Boolean
// query holds.
func TestExistsOnAdversarialShapes(t *testing.T) {
	v := func(xs ...int) []relation.Value {
		out := make([]relation.Value, len(xs))
		for i, x := range xs {
			out[i] = relation.Value(x)
		}
		return out
	}
	star := &tnode{vars: []int{0, 1}, rows: [][]relation.Value{v(1, 1), v(2, 2)}, children: []*tnode{
		{vars: []int{1, 2}, rows: [][]relation.Value{v(1, 5), v(2, 6)}},
		{vars: []int{0, 3}},
	}}
	product := &tnode{vars: []int{0}, rows: [][]relation.Value{v(1), v(2)}, children: []*tnode{
		{vars: []int{5, 6}, rows: [][]relation.Value{v(7, 8)}},
	}}
	emptyProduct := &tnode{vars: []int{0}, rows: [][]relation.Value{v(1)}, children: []*tnode{{vars: []int{5}}}}
	// root rows 0 and 2 look up the same dead run, with another between
	deadTwice := &tnode{vars: []int{0, 1}, rows: [][]relation.Value{v(0, 1), v(1, 2), v(2, 1)}, children: []*tnode{
		{vars: []int{1, 2}, rows: [][]relation.Value{v(1, 7), v(2, 7)}, children: []*tnode{{vars: []int{2, 3}, rows: [][]relation.Value{v(8, 9)}}}},
	}}
	// the one live child row is the last of its run
	lastInRun := &tnode{vars: []int{0, 1}, rows: [][]relation.Value{v(0, 1)}, children: []*tnode{
		{vars: []int{1, 2}, rows: [][]relation.Value{v(1, 1), v(1, 2), v(1, 3)}, children: []*tnode{{vars: []int{2, 3}, rows: [][]relation.Value{v(3, 9)}}}},
	}}
	cases := []struct {
		name string
		tree *tnode
		want bool
	}{
		{"empty child", star, false},
		{"last root row only", path(3, 200, true, true), true},
		{"no witness", path(3, 200, true, false), false},
		{"deep path", path(40, 30, false, false), true},
		{"deep path, dead leaf", path(40, 30, true, false), false},
		{"deep path, last row", path(40, 30, true, true), true},
		{"dead run met twice", deadTwice, false},
		{"live row last in its run", lastInRun, true},
		{"product child", product, true},
		{"empty product child", emptyProduct, false},
		{"childless root", &tnode{vars: []int{0}, rows: [][]relation.Value{v(3)}}, true},
		{"empty childless root", &tnode{vars: []int{0}}, false},
	}
	rng := rand.New(rand.NewSource(33))
	for _, tc := range cases {
		for i, tree := range []*tnode{tc.tree, tc.tree.shuffled(rng), tc.tree.shuffled(rng)} {
			name := fmt.Sprintf("%s #%d", tc.name, i)
			got, err := exists(context.Background(), tree.build())
			if err != nil {
				t.Fatal(err)
			}
			if ref := reduceExists(tree); got != tc.want || ref != tc.want {
				t.Fatalf("%s: Boolean descent = %v, reduced = %v, want %v", name, got, ref, tc.want)
			}
			a, err := NewAnswers(context.Background(), tree.build(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{false: 0, true: 1}[tc.want]; a.Count() != want {
				t.Fatalf("%s: the Boolean cursor counts %d, want %d", name, a.Count(), want)
			}
			for _, head := range heads(tree) {
				a, err := NewAnswers(context.Background(), tree.build(), head)
				if err != nil {
					t.Fatal(err)
				}
				if a.Close(); (a.Count() > 0) != got {
					t.Fatalf("%s: head %v counts %d answers, but the Boolean descent = %v", name, head, a.Count(), got)
				}
			}
		}
	}
}

// heads returns the heads to hold a tree's counts to the Boolean descent on: each
// variable alone, every prefix of its variables in preorder — so some
// subtrees supply no head variable and only filter, and some drop one and
// fold — and, as the longest prefix, all of them.
func heads(n *tnode) [][]int {
	var vars []int
	var walk func(n *tnode)
	walk = func(n *tnode) {
		for _, v := range n.vars {
			if !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(n)
	var out [][]int
	for i, v := range vars {
		out = append(out, []int{v}, vars[:i+1])
	}
	return out
}

// On a path whose first root row is live the descent looks up one run per
// edge and stops: its span's Steps stay within the tree's depth, however
// many rows each node holds. A Boolean cursor has no walk, so no
// SpanEnumerate is recorded.
func TestExistsStopsAtFirstWitness(t *testing.T) {
	const depth = 12
	tr := obs.New()
	ok, err := exists(obs.NewContext(context.Background(), tr), path(depth, 5000, false, false).build())
	if err != nil || !ok {
		t.Fatalf("exists = %v, %v; want true", ok, err)
	}
	var up []obs.Span
	for _, s := range tr.Spans() {
		switch s.Name {
		case obs.SpanSemijoinUp:
			up = append(up, s)
		case obs.SpanEnumerate:
			t.Fatalf("a Boolean execution recorded %+v", s)
		}
	}
	if len(up) != 1 || up[0].Steps > depth || up[0].Rows != 1 {
		t.Fatalf("descent spans %+v: want one with Steps ≤ %d and Rows 1", up, depth)
	}
	// A false query's descent records Rows 0, not "no cardinality".
	dead := obs.New()
	if ok, err := exists(obs.NewContext(context.Background(), dead), path(depth, 50, true, false).build()); err != nil || ok {
		t.Fatalf("exists on a dead path = %v, %v; want false", ok, err)
	}
	if s := dead.Spans(); len(s) != 1 || s[0].Name != obs.SpanSemijoinUp || s[0].Rows != 0 {
		t.Fatalf("dead path spans %+v: want one SpanSemijoinUp with Rows 0", s)
	}
}

// sortedRows returns t's rows over vars, sorted.
func sortedRows(t *relation.Table, vars []int) [][]relation.Value {
	p := t.Project(vars)
	rows := make([][]relation.Value, p.Rows())
	for i := range rows {
		rows[i] = slices.Clone(p.Row(i))
	}
	slices.SortFunc(rows, slices.Compare)
	return rows
}

// The folds — the root walked run by run over its leading head columns,
// and a subtree below the root folded onto its key and head variables run
// by run of the key — against the naive join projected onto the head, row
// for row once sorted (so every answer comes once). The root prefix takes
// every length: 0 (a non-head column leads), partial, and full (every head
// variable leads, so each run is one answer); the runs' varying columns
// number none, one and several. Within a run the rows must come sorted in
// head order.
func TestFoldPerRunMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := func(w, n, domain int) [][]relation.Value {
		var out [][]relation.Value
		for range n {
			r := make([]relation.Value, w)
			for j := range r {
				r[j] = relation.Value(rng.Intn(domain))
			}
			out = append(out, r)
		}
		return out
	}
	// root (0,1,2) — child (2,3) — grandchild (3,4); the child and
	// grandchild also hang off a variable the head may drop
	tree := func(rootOrder []int) *tnode {
		return &tnode{vars: []int{0, 1, 2}, order: rootOrder, rows: rows(3, 300, 6), children: []*tnode{
			{vars: []int{2, 3}, rows: rows(2, 40, 6), children: []*tnode{
				{vars: []int{3, 4}, rows: rows(2, 40, 6)},
			}},
		}}
	}
	cases := []struct {
		name  string
		order []int // the root's column order
		head  []int
		k     int // the root's leading head columns
	}{
		{"prefix 0", []int{1, 0, 2}, []int{0, 4}, 0},
		{"prefix 1 of 2, one column varies", []int{0, 1, 2}, []int{4, 0}, 1},
		{"prefix 1 of 3, two vary", []int{0, 1, 2}, []int{0, 3, 4}, 1},
		{"prefix full", []int{0, 2, 1}, []int{2, 0}, 2},
		{"prefix full, child folded", []int{0, 2, 1}, []int{0, 2, 4}, 2},
		{"clean root, child folded", []int{0, 1, 2}, []int{0, 1, 2, 4}, 3},
	}
	for _, tc := range cases {
		tr := tree(tc.order)
		want := sortedRows(tr.join(), tc.head)
		a, err := NewAnswers(context.Background(), tr.build(), tc.head)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 10 {
			t.Fatalf("%s: only %d answers; the case needs more", tc.name, len(want))
		}
		if a.Count() != len(want) || got.Rows() != len(want) || !slices.EqualFunc(sortedRows(got, tc.head), want, slices.Equal) {
			t.Fatalf("%s: %d answers (Count %d), naive %d", tc.name, got.Rows(), a.Count(), len(want))
		}
		// within a run of the root's first k columns, rows ascend
		pos := make([]int, tc.k)
		for j := range pos {
			pos[j] = slices.Index(tc.head, tc.order[j])
		}
		for i := 1; i < got.Rows(); i++ {
			prev, row := got.Row(i-1), got.Row(i)
			sameRun := !slices.ContainsFunc(pos, func(p int) bool { return prev[p] != row[p] })
			if sameRun && slices.Compare(prev, row) >= 0 {
				t.Fatalf("%s: rows %d and %d of one run are out of order: %v, %v", tc.name, i-1, i, prev, row)
			}
		}
	}
}
