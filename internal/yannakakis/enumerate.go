package yannakakis

import (
	"context"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// This file is the enumeration phase (Theorem 4.8). After full reduction
// every remaining row takes part in an answer, so the answers are produced
// by walking the node tables as tries, top-down: each node's encoding leads
// with the variables it shares with its parent, so a parent row's matching
// child rows are one galloped run (relation.Columnar.PrefixRun), and rows
// are written straight into the head's column order. A walk that binds only
// head variables emits distinct rows by construction. Where a node holds a
// variable the head drops, the classical bound is kept by folding: that
// node's subtree is walked on its own, projected onto what the rest of the
// tree still needs (its head variables and the parent key) and sort-
// deduplicated as sorted columns, bottom-up — so an intermediate result
// never exceeds |node table| × |answers|, and no string key is built.

// EnumerateContext computes the answer over the head variables, reducing the
// tree in place first. Cancellation is polled between semijoins and every
// few thousand walked rows; workers > 1 runs the full-reducer phase on that
// many goroutines. Under a traced context the walk records as one
// SpanEnumerate: Steps counts the subtrees folded, Rows the answers; the
// reduction passes record their own semijoin spans.
func EnumerateContext(ctx context.Context, root *Node, head []int, workers int) (*relation.Table, error) {
	if err := Reduce(ctx, root, workers); err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).StartSpan(obs.SpanEnumerate)
	out := relation.NewTable(head)
	switch {
	case len(head) == 0 && root.Rows() > 0:
		out = relation.TrueTable()
	case len(head) > 0 && root.Rows() > 0:
		e := &enumerator{ctx: ctx, sp: sp, head: map[int]bool{}}
		for _, v := range head {
			e.head[v] = true
		}
		en := e.build(root, nil)
		out = e.walk(en, head)
		if e.err != nil {
			return nil, e.err
		}
		if !en.clean {
			out = relation.NewColumnar(out, head).Distinct().Table()
		}
	}
	sp.SetRows(out.Rows())
	sp.End()
	return out, nil
}

// enode is one node of the enumeration tree: a reduced node table whose
// encoding leads with the key — the variables shared with the parent.
type enode struct {
	c        *relation.Columnar
	pcol     []int // the parent column of each key column
	children []*enode
	// out lists the head variables this subtree supplies: those outside
	// the key, which the parent row already fixes. By the connectedness
	// condition no two subtrees supply the same one.
	out []int
	// clean: every non-key variable here is a head variable. Children are
	// clean by construction (folded when not), so walking a clean node
	// under a fixed parent row emits distinct rows.
	clean bool
}

type enumerator struct {
	ctx  context.Context
	sp   *obs.Span
	head map[int]bool
	err  error // the context's, once a poll saw it cancelled
	tick int
}

// build turns the reduced subtree of n into its enumeration tree under a
// parent encoded as p (nil at the root). It returns nil for a subtree that
// supplies no head variable: full reduction already guarantees every
// parent row a match there, so the walk has nothing to look up.
func (e *enumerator) build(n *Node, p *relation.Columnar) *enode {
	var key, rest []int
	for _, v := range n.Vars() {
		if indexOf(p, v) >= 0 {
			key = append(key, v)
		} else {
			rest = append(rest, v)
		}
	}
	c := n.Enc
	for i := 0; c != nil && i < len(key); i++ {
		if indexOf(p, c.Vars[i]) < 0 {
			c = nil // the key is not the encoding's prefix
		}
	}
	if c == nil {
		c = n.Enc.Reorder(append(key, rest...))
	}
	en := &enode{c: c, clean: true}
	for i, v := range c.Vars {
		switch {
		case i < len(key):
			en.pcol = append(en.pcol, indexOf(p, v))
		case e.head[v]:
			en.out = append(en.out, v)
		default:
			en.clean = false
		}
	}
	for _, ch := range n.Children {
		if cn := e.build(ch, c); cn != nil {
			en.children = append(en.children, cn)
			en.out = append(en.out, cn.out...)
		}
	}
	if len(en.out) == 0 {
		return nil
	}
	if !en.clean && p != nil {
		// Fold: project the subtree onto its key and its head variables.
		keep := append(append([]int(nil), c.Vars[:len(key)]...), en.out...)
		folded := relation.NewColumnar(e.walk(en, keep), keep).Distinct()
		e.sp.AddSteps(1)
		en = &enode{c: folded, pcol: en.pcol, out: en.out, clean: true}
	}
	return en
}

// indexOf returns v's column in c, or -1 (also when c is nil).
func indexOf(c *relation.Columnar, v int) int {
	if c != nil {
		for i, x := range c.Vars {
			if x == v {
				return i
			}
		}
	}
	return -1
}

// wnode is an enode laid out for one walk: its position in the preorder,
// the output columns it fills, and the cursor state.
type wnode struct {
	*enode
	parent int      // preorder index of the parent, -1 at the root
	emit   [][2]int // (column here, column of the output row)
	key    []relation.Value
	cur    int // current row
	at     int // the parent row [lo, hi) was looked up for, -1 before any
	lo, hi int
}

type walker struct {
	e     *enumerator
	nodes []wnode
	row   []relation.Value
	data  []relation.Value
	count int // ≥ 0 while counting rows instead of emitting them, -1 after
}

// walk enumerates the join of the tree under root projected onto out, which
// must name variables of the tree: nested loops in preorder, each node
// ranging over the run of its parent's current row. Every output variable
// is written by the first node in preorder that holds it.
func (e *enumerator) walk(root *enode, out []int) *relation.Table {
	w := &walker{e: e, row: make([]relation.Value, len(out))}
	filled := make([]bool, len(out))
	var lay func(n *enode, parent int)
	lay = func(n *enode, parent int) {
		wn := wnode{enode: n, parent: parent, key: make([]relation.Value, len(n.pcol)), at: -1}
		for pos, v := range out {
			if j := indexOf(n.c, v); j >= 0 && !filled[pos] {
				filled[pos] = true
				wn.emit = append(wn.emit, [2]int{j, pos})
			}
		}
		w.nodes = append(w.nodes, wn)
		self := len(w.nodes) - 1
		for _, ch := range n.children {
			lay(ch, self)
		}
	}
	lay(root, -1)
	// Two passes: the first only sums the innermost runs, so the answer
	// buffer is allocated once, at its exact size.
	w.rec(0)
	w.data, w.count = make([]relation.Value, 0, w.count*len(out)), -1
	w.rec(0)
	return relation.NewTableOf(out, w.data)
}

func (w *walker) rec(i int) {
	n := &w.nodes[i]
	lo, hi := 0, n.c.Rows()
	if n.parent >= 0 {
		p := &w.nodes[n.parent]
		if n.at != p.cur {
			for j, pc := range n.pcol {
				n.key[j] = p.c.Value(pc, p.cur)
			}
			n.lo, n.hi = n.c.PrefixRun(n.key)
			n.at = p.cur
		}
		lo, hi = n.lo, n.hi
	}
	last := i+1 == len(w.nodes)
	if last && w.count >= 0 {
		w.count += hi - lo
		return
	}
	for r := lo; r < hi && w.e.err == nil; r++ {
		n.cur = r
		for _, em := range n.emit {
			w.row[em[1]] = n.c.Value(em[0], r)
		}
		if last {
			w.data = append(w.data, w.row...)
		} else {
			w.rec(i + 1)
		}
		if w.e.tick++; w.e.tick&4095 == 0 {
			w.e.err = w.e.ctx.Err()
		}
	}
}
