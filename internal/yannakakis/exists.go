package yannakakis

import (
	"context"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// Exists decides the Boolean query of the tree under root — is there an
// answer? — by a top-down descent over the node tables as tries, the Boolean
// Yannakakis question asked first-witness-first. A row is live when, for
// every child, the run of child rows its key selects (each encoding re-keyed
// to lead with the variables shared with its parent, as for the answer
// cursor, so the run is one lookup of a relation.Probe) holds a live row;
// the query is true iff some root row is live, and the descent stops at the
// first. A memo of whether a run is live, indexed by the run's first row,
// decides every run at most once; the runs of a node partition its rows, so
// every row is decided at most once too and needs no memo of its own. The
// worst case is O(Σ rows) lookups, like the bottom-up semijoin pass, and
// the best case, a live first root row, O(depth). Children are tried in
// the tree's order, most selective first under a cost model. The tree is
// only read. The context is polled every 4 096 rows. Under a traced context
// the descent records as SpanSemijoinUp: Steps the runs looked up, Rows 1
// when the query is true and 0 otherwise.
func Exists(ctx context.Context, root *Node) (bool, error) {
	sp := obs.FromContext(ctx).StartSpan(obs.SpanSemijoinUp)
	x := &exister{ctx: ctx}
	rows := root.Rows()
	ok := rows > 0
	if ok && len(root.Children) > 0 {
		n := x.keyTree(root, nil)
		ok = false
		for r := 0; r < rows && !ok && x.err == nil; r++ {
			ok = x.live(n, r)
		}
	}
	if x.err != nil {
		return false, x.err
	}
	sp.AddSteps(int64(x.lookups))
	if ok {
		sp.SetRows(1)
	}
	sp.End()
	return ok, nil
}

// xnode is one node of the descent: its table keyed for its parent, and
// the memo of the runs decided so far by first row (0 undecided, 1 live, -1
// dead), allocated only below the root on a node with children — a leaf's
// every row is live.
type xnode struct {
	children []*xnode
	run      []int8
	probe    relation.Probe // its current run under the parent's rows
}

// exister is the state of one descent.
type exister struct {
	ctx     context.Context
	lookups int
	tick    int
	err     error
}

// keyTree re-keys the subtree of n under a parent encoded as p (nil at the
// root); a leaf only needs its key columns.
func (x *exister) keyTree(n *Node, p *relation.Columnar) *xnode {
	c, pcol := keyed(n, p, len(n.Children) == 0)
	xn := &xnode{probe: c.Probe(p, pcol)}
	if len(n.Children) > 0 && p != nil {
		xn.run = make([]int8, c.Rows())
	}
	for _, ch := range n.Children {
		xn.children = append(xn.children, x.keyTree(ch, c))
	}
	return xn
}

// live reports whether row r of n, a node with children, extends to the
// subtree's join.
func (x *exister) live(n *xnode, r int) bool {
	if x.tick++; x.tick&4095 == 0 && x.err == nil {
		x.err = x.ctx.Err()
	}
	for _, ch := range n.children {
		if ch.probe.At(r) {
			x.lookups++
		}
		if !x.runLive(ch) {
			return false
		}
	}
	return x.err == nil
}

// runLive reports whether n's current run holds a live row.
func (x *exister) runLive(n *xnode) bool {
	lo, hi := n.probe.Run()
	if lo == hi || len(n.children) == 0 {
		return lo < hi
	}
	if m := n.run[lo]; m != 0 {
		return m > 0
	}
	ok := false
	for r := lo; r < hi && !ok && x.err == nil; r++ {
		ok = x.live(n, r)
	}
	if x.err != nil {
		return false
	}
	n.run[lo] = -1
	if ok {
		n.run[lo] = 1
	}
	return ok
}
