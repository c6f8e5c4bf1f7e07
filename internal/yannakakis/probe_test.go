package yannakakis

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

func vals(xs ...int) []relation.Value {
	out := make([]relation.Value, len(xs))
	for i, x := range xs {
		out[i] = relation.Value(x)
	}
	return out
}

// oneKeyTree is root (0,1) — child (1,2), every value times m. Root rows 0
// and 1 select no child row: key 0 lies below the child's smallest leading
// value, key 50 above its largest; key 3 lies between, absent. Rows 2 and 3
// share a key, so the second reuses the first's run.
func oneKeyTree(m int) *tnode {
	rows := func(rs ...[]int) [][]relation.Value {
		var out [][]relation.Value
		for _, r := range rs {
			for i := range r {
				r[i] *= m
			}
			out = append(out, vals(r...))
		}
		return out
	}
	return &tnode{vars: []int{0, 1}, rows: rows([]int{0, 0}, []int{1, 50}, []int{2, 1}, []int{3, 1}, []int{4, 3}, []int{5, 4}, []int{6, 2}), children: []*tnode{
		{vars: []int{1, 2}, rows: rows([]int{1, 10}, []int{1, 11}, []int{2, 12}, []int{4, 13}, []int{4, 14}, []int{4, 15}, []int{6, 16})},
	}}
}

// inJoin reports whether row, over vars, agrees with a row of every table
// of the tree.
func inJoin(n *tnode, vars []int, row []relation.Value) bool {
	ok := slices.ContainsFunc(n.rows, func(r []relation.Value) bool {
		for j, v := range n.vars {
			if r[j] != row[slices.Index(vars, v)] {
				return false
			}
		}
		return true
	})
	for _, c := range n.children {
		ok = ok && inJoin(c, vars, row)
	}
	return ok
}

// rootCounts returns the count of each root row of the tree under root
// projected onto head: on a fresh build, the descent over that row alone.
func rootCounts(root *Node, head []int) []int64 {
	e := &enumerator{ctx: context.Background(), head: map[int]bool{}}
	for _, v := range head {
		e.head[v] = true
	}
	en := e.build(root, nil, true) // root rows counted in ascending order
	counts := make([]int64, en.c.Rows())
	for r := range counts {
		counts[r] = e.rows(en, r, r+1)
	}
	return counts
}

// wideTree is a root (0) under 62 children (0,i): root row c extends
// 2^e[c] ways — child i holds two rows for it where i ≤ e[c], one
// elsewhere — or, where e[c] < 0, none, child 1 holding no row for it. It
// returns the tree, its full head and the root rows' counts.
func wideTree(e ...int) (*tnode, []int, []int64) {
	root, head, counts := &tnode{vars: []int{0}}, []int{0}, []int64{}
	for c, x := range e {
		root.rows = append(root.rows, vals(c))
		counts = append(counts, 0)
		if x >= 0 {
			counts[c] = 1 << x
		}
	}
	for i := 1; i <= 62; i++ {
		ch := &tnode{vars: []int{0, i}}
		for c, x := range e {
			if x >= 0 || i > 1 {
				ch.rows = append(ch.rows, vals(c, 0))
			}
			if i <= x {
				ch.rows = append(ch.rows, vals(c, 1))
			}
		}
		root.children = append(root.children, ch)
		head = append(head, i)
	}
	return root, head, counts
}

// Once a node's sum saturates at math.MaxInt64, a run of it counted later
// on the same build must still sum exactly, and a zero-count row must still
// read 0: the child runs memoised while saturating hold exact counts.
func TestSaturatedPrefixSumsStayExactPerRun(t *testing.T) {
	tree, head, counts := wideTree(62, 62, 0, -1, 2)
	e := &enumerator{ctx: context.Background(), head: map[int]bool{}}
	for _, v := range head {
		e.head[v] = true
	}
	en := e.build(tree.build(), nil, false) // root runs recounted out of order
	if got := e.rows(en, 0, len(counts)); got != math.MaxInt64 {
		t.Fatalf("the whole node sums to %d, want math.MaxInt64", got)
	}
	for _, tc := range []struct{ lo, hi int }{{2, 5}, {4, 5}, {2, 3}, {3, 4}} {
		want := int64(0)
		for _, c := range counts[tc.lo:tc.hi] {
			want += c
		}
		if got := e.rows(en, tc.lo, tc.hi); got != want {
			t.Fatalf("rows(%d, %d) = %d, want %d", tc.lo, tc.hi, got, want)
		}
	}
	for r, c := range counts {
		if got := e.rows(en, r, r+1); got != c {
			t.Fatalf("row %d counts %d, want %d", r, got, c)
		}
	}
}

// The child probe's branches against the naive join, one case per way it
// finds a run: one dense key column (two offset reads), one sparse column
// (galloped), two key columns (the second galloped, as under cycle4's
// bags), a child supplying no head variable (decided at its first live
// row), sums that saturate past math.MaxInt64 and onto it, and a child
// whose first run saturates while a later small run and a zero-count row
// must still count exactly. For each, the root rows' counts and Count
// against the naive join (given outright where it is too large to list),
// the walk's rows against the naive answers (checked one by one against
// the tables when too many), and the Boolean descent against whether there is any
// answer.
func TestProbeBranchesMatchNaive(t *testing.T) {
	// under puts a wide tree below a root (63) of one row per run: root row
	// k's run in the middle node (63,0) holds the rows c with run[c] = k
	under := func(w *tnode, head []int, counts []int64, run ...int) (*tnode, []int, []int64) {
		mid := &tnode{vars: []int{63, 0}, children: w.children}
		top := &tnode{vars: []int{63}, children: []*tnode{mid}}
		var sums []int64
		for c, k := range run {
			mid.rows = append(mid.rows, vals(k, c))
			for len(sums) <= k {
				top.rows = append(top.rows, vals(len(sums)))
				sums = append(sums, 0)
			}
			sums[k] = addSat(sums[k], counts[c])
		}
		return top, append([]int{63}, head...), sums
	}
	exps := make([]int, 63)
	for c := range exps {
		exps[c] = c
	}
	overflow, overflowHead, overflowCounts := wideTree(62, 62, -1, 0, 2)
	exact, exactHead, exactCounts := wideTree(exps...)
	// run 0 saturates (2⁶² + 2⁶²), run 1 counts 1 + 0 + 4, run 2 is one
	// zero-count row
	w, wHead, wCounts := wideTree(62, 62, 0, -1, 2, -1)
	runs, runsHead, runsCounts := under(w, wHead, wCounts, 0, 0, 1, 1, 1, 2)
	cases := []struct {
		name   string
		tree   *tnode
		head   []int
		counts []int64 // the root rows' counts, when the naive join is too large
	}{
		{"one dense key column", oneKeyTree(1), []int{0, 1, 2}, nil},
		{"one sparse key column", oneKeyTree(10_000_000), []int{0, 1, 2}, nil},
		{"two key columns", &tnode{vars: []int{0, 1, 2}, rows: [][]relation.Value{vals(0, 1, 9), vals(1, 7, 1), vals(2, 1, 1), vals(3, 1, 2), vals(4, 2, 2), vals(5, 2, 2), vals(6, 1, 1)}, children: []*tnode{
			{vars: []int{1, 2, 3}, rows: [][]relation.Value{vals(1, 1, 10), vals(1, 1, 11), vals(1, 2, 12), vals(1, 3, 13), vals(2, 2, 14), vals(2, 2, 15), vals(2, 5, 16)}},
		}}, []int{0, 1, 2, 3}, nil},
		{"child supplies no head variable", oneKeyTree(1), []int{0, 1}, nil},
		// 2⁶² + 2⁶² overflows, a zero and small counts follow
		{"sum past math.MaxInt64", overflow, overflowHead, overflowCounts},
		// 2⁰ + … + 2⁶² is math.MaxInt64 itself
		{"sum reaching math.MaxInt64", exact, exactHead, exactCounts},
		{"a saturated run, then exact ones", runs, runsHead, runsCounts},
	}
	for _, tc := range cases {
		root := tc.tree.build()
		a, err := NewAnswers(context.Background(), root, tc.head)
		if err != nil {
			t.Fatal(err)
		}
		rootVars := root.Vars()
		want := tc.counts
		var answers [][]relation.Value
		if want == nil {
			answers = sortedRows(tc.tree.join(), tc.head)
			want = make([]int64, root.Rows())
			for r := range want {
				for _, ans := range answers {
					if !slices.ContainsFunc(rootVars, func(v int) bool { return ans[slices.Index(tc.head, v)] != root.Enc.Value(slices.Index(rootVars, v), r) }) {
						want[r]++
					}
				}
			}
		}
		got, total := rootCounts(tc.tree.build(), tc.head), int64(0)
		for r, c := range want {
			if got[r] != c {
				t.Fatalf("%s: root row %d counts %d, want %d", tc.name, r, got[r], c)
			}
			total = addSat(total, c)
		}
		if int64(a.Count()) != total {
			t.Fatalf("%s: Count = %d, want %d", tc.name, a.Count(), total)
		}
		if tc.counts == nil {
			got, err := a.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(sortedRows(got, tc.head), answers, slices.Equal) {
				t.Fatalf("%s: the walk lists %v, naive %v", tc.name, sortedRows(got, tc.head), answers)
			}
		} else {
			var seen [][]relation.Value
			for range 100 {
				row, ok := a.Next()
				if !ok || !inJoin(tc.tree, tc.head, row) || slices.ContainsFunc(seen, func(s []relation.Value) bool { return slices.Equal(s, row) }) {
					t.Fatalf("%s: row %d of the walk is %v (ok %v): not a new answer of the join", tc.name, len(seen), row, ok)
				}
				seen = append(seen, slices.Clone(row))
			}
			a.Close()
		}
		if ok, err := exists(context.Background(), tc.tree.build()); err != nil || ok != (total > 0) {
			t.Fatalf("%s: Boolean descent = %v, %v; want %v", tc.name, ok, err, total > 0)
		}
	}
}

// The count pass's Steps are the child runs it looked up: a row whose key
// repeats the last lookup's reuses that run, and a row a child has already
// zeroed looks up no later child. Root (0,1) under A (1,2) and B (0,3): A's
// keys run 1 1 2 1 9 — four lookups, the second row reusing the first's
// run — and B's, distinct, are looked up for the four rows A leaves live.
func TestCountPassStepsCountLookups(t *testing.T) {
	tree := &tnode{vars: []int{0, 1}, rows: [][]relation.Value{vals(0, 1), vals(1, 1), vals(2, 2), vals(3, 1), vals(4, 9)}, children: []*tnode{
		{vars: []int{1, 2}, rows: [][]relation.Value{vals(1, 5), vals(2, 6)}},
		{vars: []int{0, 3}, rows: [][]relation.Value{vals(0, 7), vals(1, 7), vals(2, 7), vals(3, 7), vals(4, 7)}},
	}}
	tr := obs.New()
	a, err := NewAnswers(obs.NewContext(context.Background(), tr), tree.build(), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if a.Count() != 4 {
		t.Fatalf("Count = %d, want 4", a.Count())
	}
	var steps []int64
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanSemijoinUp {
			steps = append(steps, s.Steps)
		}
	}
	if !slices.Equal(steps, []int64{8}) {
		t.Fatalf("count pass spans' Steps %v, want [8]", steps)
	}
}

// The count descends only into the runs a root row reaches: a root of one
// row over a child of 50 000 rows, each with a grandchild row, looks up one
// child run and the one grandchild run under it — Steps 2, where a pass
// over every child row would look up 50 000 grandchild runs.
func TestCountPassVisitsOnlyReachableRuns(t *testing.T) {
	const n = 50_000
	cdata := make([]relation.Value, 0, 2*n)
	for i := range relation.Value(n) {
		cdata = append(cdata, i, i)
	}
	child := relation.NewColumnar(relation.NewTableOf([]int{1, 2}, cdata), []int{1, 2})
	grandchild := relation.NewColumnar(relation.NewTableOf([]int{2, 3}, cdata), []int{2, 3})
	root := &Node{
		Enc:      relation.NewColumnar(relation.NewTableOf([]int{0, 1}, vals(0, 7)), []int{0, 1}),
		Children: []*Node{{Enc: child, Children: []*Node{{Enc: grandchild}}}},
	}
	tr := obs.New()
	a, err := NewAnswers(obs.NewContext(context.Background(), tr), root, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := a.Next()
	a.Close()
	if a.Count() != 1 || !ok || !slices.Equal(row, vals(0, 7, 7, 7)) {
		t.Fatalf("Count = %d, first row %v (%v); want 1 and [0 7 7 7]", a.Count(), row, ok)
	}
	var steps []int64
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanSemijoinUp {
			steps = append(steps, s.Steps)
		}
	}
	if !slices.Equal(steps, []int64{2}) {
		t.Fatalf("count pass spans' Steps %v, want [2]", steps)
	}
}

// BenchmarkCountPass times the count pass alone (NewAnswers, no row
// walked) over a 3-path of 15 000 rows a node, ≈ 2 child rows a key, on
// each probe branch: key1-dense is one dense key column (exec_enum's
// shape), key1-sparse the same values spread too far apart for run offsets,
// key2 two key columns a node.
func BenchmarkCountPass(b *testing.B) {
	const n = 15000
	rng := rand.New(rand.NewSource(1))
	path := func(width int, value func() relation.Value) *Node {
		var root, cur *Node
		for d := range 3 {
			vars := make([]int, width)
			for j := range vars {
				vars[j] = d + j
			}
			data := make([]relation.Value, 0, n*width)
			for range n * width {
				data = append(data, value())
			}
			node := &Node{Enc: relation.NewColumnar(relation.NewTableOf(vars, data), vars).Distinct()}
			if root == nil {
				root = node
			} else {
				cur.Children = append(cur.Children, node)
			}
			cur = node
		}
		return root
	}
	for _, bc := range []struct {
		name  string
		width int
		value func() relation.Value
	}{
		{"key1-dense", 2, func() relation.Value { return relation.Value(rng.Intn(n / 2)) }},
		{"key1-sparse", 2, func() relation.Value { return relation.Value(rng.Intn(n/2) * 100_003) }},
		{"key2", 3, func() relation.Value { return relation.Value(rng.Intn(87)) }},
	} {
		root := path(bc.width, bc.value)
		head := make([]int, bc.width+2)
		for j := range head {
			head[j] = j
		}
		b.Run(bc.name, func(b *testing.B) {
			var count int
			for range b.N {
				a, err := NewAnswers(context.Background(), root, head)
				if err != nil {
					b.Fatal(err)
				}
				count = a.Count()
				a.Close()
			}
			b.ReportMetric(float64(count), "answers")
			if count == 0 || count == math.MaxInt64 {
				b.Fatalf("%d answers", count)
			}
		})
	}
}
