package yannakakis

import (
	"context"
	"math"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// This file is the enumeration phase (Theorem 4.8) as a cursor, with no
// semijoin. One bottom-up count pass gives every node prefix sums over its
// rows' counts, cnt(r) = Π over the children of the counts in the run r's
// key selects — the up pass computed with counts, so a row counts 0 exactly
// when a semijoin would have deleted it. The walk then reads the node tables
// as tries, top-down (each encoding leads with the key shared with the
// parent, so a parent row's child rows are one relation.Columnar.PrefixRun)
// and skips zero-count rows, which is all the down pass bought it: every
// partial binding extends to an answer, so the first k answers cost O(k ·
// depth) after the count pass. A walk that binds only head variables emits
// distinct rows. Where a node below the root holds a variable the head
// drops, its subtree is folded — walked on its own, projected onto its key
// and head variables, sort-deduplicated — so counts stay distinct and every
// intermediate within |node table| × |answers|; a root holding one is walked
// whole and deduplicated the same way. Counts saturate at math.MaxInt64.

// Answers is one execution's answers over the head variables, as a cursor:
// Count is known on return, Next walks one answer at a time, Materialize
// drains the rest. Rows come in the tree's preorder nested-loop order (sorted
// head order after a root fold). Under a traced context the count pass
// records as SpanSemijoinUp (Steps the child lookups per row, summed over
// the tree's edges) and the walk as SpanEnumerate, open until the cursor
// closes (Steps the subtrees folded, Rows the Count). A cursor is for one
// goroutine.
type Answers struct {
	vars    []int
	count   int
	w       *walker         // the walk of a clean root; nil over a table
	tab     *relation.Table // the answers as a table, when already built
	pos     int             // the next row of tab
	sp      *obs.Span
	err     error
	closed  bool
	onClose func(count int, err error)
}

// NewAnswers runs the count pass over the tree under root and returns the
// cursor over its answers projected onto head. The count pass and the walk
// poll ctx every 4 096 rows.
func NewAnswers(ctx context.Context, root *Node, head []int) (*Answers, error) {
	tr := obs.FromContext(ctx)
	e := &enumerator{ctx: ctx, up: tr.StartSpan(obs.SpanSemijoinUp), head: map[int]bool{}}
	for _, v := range head {
		e.head[v] = true
	}
	en := e.build(root, nil)
	e.up.End()
	a := &Answers{vars: head, sp: tr.StartSpan(obs.SpanEnumerate)}
	switch {
	case e.err != nil:
	case len(head) == 0:
		a.tab = relation.NewTable(nil)
		if en.runSum(0, en.c.Rows()) > 0 {
			a.tab = relation.TrueTable()
		}
	case !en.clean:
		a.tab = relation.NewColumnar(e.walk(en, head), head).Distinct().Table()
	default:
		a.w = newWalker(e, en, head)
		a.count = int(en.runSum(0, en.c.Rows()))
	}
	if e.err != nil {
		a.sp.End()
		return nil, e.err
	}
	if a.tab != nil {
		a.count = a.tab.Rows()
	}
	a.sp.AddSteps(int64(e.folds))
	return a, nil
}

// TableAnswers is the cursor over an answer table already built.
func TableAnswers(t *relation.Table) *Answers {
	return &Answers{vars: t.Vars, tab: t, count: t.Rows()}
}

// Vars returns the answer columns (the head variables).
func (a *Answers) Vars() []int { return a.vars }

// Count returns the number of answers, math.MaxInt64 when there are more.
func (a *Answers) Count() int { return a.count }

// Err returns the error that stopped Next early (a cancelled context).
func (a *Answers) Err() error { return a.err }

// OnClose registers f to run once, when the cursor closes, with Count and
// Err; it replaces any function registered before.
func (a *Answers) OnClose(f func(count int, err error)) { a.onClose = f }

// Next returns the next answer, in Vars order, and true; false once the
// answers are exhausted or the context is cancelled (see Err), which closes
// the cursor. The row is the cursor's own buffer, valid until the next call.
func (a *Answers) Next() ([]relation.Value, bool) {
	switch {
	case a.closed:
		return nil, false
	case a.w != nil:
		if a.w.next() {
			return a.w.row, true
		}
		a.err = a.w.e.err
	case a.pos < a.tab.Rows():
		a.pos++
		return a.tab.Row(a.pos - 1), true
	}
	a.Close()
	return nil, false
}

// Materialize drains the answers Next has not returned into a table over
// Vars, and closes the cursor.
func (a *Answers) Materialize() (*relation.Table, error) {
	if a.tab != nil && a.pos == 0 && !a.closed {
		a.Close()
		return a.tab, nil
	}
	if len(a.vars) == 0 { // a Boolean answer: the empty row, or none
		_, ok := a.Next()
		a.Close()
		if ok {
			return relation.TrueTable(), nil
		}
		return relation.NewTable(nil), a.err
	}
	var data []relation.Value
	if w := len(a.vars); a.w != nil && a.count < math.MaxInt64/w {
		data = make([]relation.Value, 0, a.count*w)
	}
	for {
		row, ok := a.Next()
		if !ok {
			break
		}
		data = append(data, row...)
	}
	if a.err != nil {
		return nil, a.err
	}
	return relation.NewTableOf(a.vars, data), nil
}

// Close ends the walk's span and runs the OnClose function; closing twice is
// a no-op.
func (a *Answers) Close() {
	if a.closed {
		return
	}
	a.closed = true
	a.sp.SetRows(a.count)
	a.sp.End()
	if a.onClose != nil {
		a.onClose(a.count, a.err)
	}
}

// enode is one node of the enumeration tree: a node table whose encoding
// leads with the key — the variables shared with the parent — and its
// counts.
type enode struct {
	c        *relation.Columnar
	pcol     []int // the parent column of each key column
	children []*enode
	// out lists the head variables this subtree supplies: those outside
	// the key, which the parent row already fixes. By the connectedness
	// condition no two subtrees supply the same one. A subtree that
	// supplies none only filters its parent: its count is 0 or 1, and the
	// walk never enters it.
	out []int
	// clean: every non-key variable here is a head variable. Children are
	// clean by construction (folded when not), so walking a clean node
	// under a fixed parent row emits distinct rows.
	clean bool
	// ps[r] is the saturating sum of the counts of rows 0..r-1; nil when
	// every row counts 1 (no children). cnt holds the counts themselves,
	// kept only once ps saturates, where differences of ps stop being
	// exact.
	ps, cnt []int64
}

// rowCount returns row r's count.
func (n *enode) rowCount(r int) int64 {
	switch {
	case n.cnt != nil:
		return n.cnt[r]
	case n.ps != nil:
		return n.ps[r+1] - n.ps[r]
	}
	return 1
}

// runSum returns the saturating sum of the counts of rows [lo, hi): one
// subtraction, unless the prefix sums saturated before hi.
func (n *enode) runSum(lo, hi int) int64 {
	switch {
	case n.ps == nil:
		return int64(hi - lo)
	case n.ps[hi] < math.MaxInt64:
		return n.ps[hi] - n.ps[lo]
	}
	var s int64
	for _, c := range n.cnt[lo:hi] {
		s = addSat(s, c)
	}
	return s
}

// setCount records row r's count, after rows 0..r-1.
func (n *enode) setCount(r int, c int64) {
	s := addSat(n.ps[r], c)
	if s == math.MaxInt64 && n.cnt == nil {
		n.cnt = make([]int64, len(n.ps)-1)
		for i := range r {
			n.cnt[i] = n.ps[i+1] - n.ps[i]
		}
	}
	if n.cnt != nil {
		n.cnt[r] = c
	}
	n.ps[r+1] = s
}

// addSat and mulSat are + and × on non-negative counts, saturating at
// math.MaxInt64.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func mulSat(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// enumerator is the state of one count pass, shared with the walks.
type enumerator struct {
	ctx   context.Context
	up    *obs.Span // the count pass
	head  map[int]bool
	folds int
	err   error // the context's, once a poll saw it cancelled
	tick  int
}

// poll checks the context every 4 096 calls, reporting whether to go on.
func (e *enumerator) poll() bool {
	if e.tick++; e.tick&4095 == 0 {
		e.err = e.ctx.Err()
	}
	return e.err == nil
}

// build turns the subtree of n into its enumeration tree under a parent
// encoded as p (nil at the root), counting bottom-up: children first, then
// n's own rows, then — for a non-root subtree that drops a variable but
// supplies head variables — the fold.
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
		cn := e.build(ch, c)
		if e.err != nil {
			return nil
		}
		en.children = append(en.children, cn)
		en.out = append(en.out, cn.out...)
	}
	e.count(en)
	if e.err == nil && !en.clean && p != nil && len(en.out) > 0 {
		// Fold: project the subtree onto its key and its head variables.
		keep := append(append([]int(nil), c.Vars[:len(key)]...), en.out...)
		folded := relation.NewColumnar(e.walk(en, keep), keep).Distinct()
		e.folds++
		en = &enode{c: folded, pcol: en.pcol, out: en.out, clean: true}
	}
	return en
}

// count fills n's counts from its children's: cnt(r) is the product over
// the children of the counts in the run r's key selects, that of a child
// supplying no head variable clamped to 1 (only its existence matters).
// Consecutive rows with the same key reuse the child's last lookup.
func (e *enumerator) count(n *enode) {
	rows := n.c.Rows()
	if len(n.children) == 0 {
		return
	}
	type lookup struct {
		key  []relation.Value
		f    int64
		seen bool
	}
	ls := make([]lookup, len(n.children))
	for i, ch := range n.children {
		ls[i].key = make([]relation.Value, len(ch.pcol))
	}
	n.ps = make([]int64, rows+1)
	for r := 0; r < rows && e.poll(); r++ {
		cnt := int64(1)
		for i, ch := range n.children {
			l := &ls[i]
			same := l.seen
			for j, pc := range ch.pcol {
				v := n.c.Value(pc, r)
				same = same && l.key[j] == v
				l.key[j] = v
			}
			if !same {
				lo, hi := ch.c.PrefixRun(l.key)
				l.f, l.seen = ch.runSum(lo, hi), true
				if len(ch.out) == 0 {
					l.f = min(l.f, 1)
				}
			}
			if cnt = mulSat(cnt, l.f); cnt == 0 {
				break
			}
		}
		n.setCount(r, cnt)
	}
	e.up.AddSteps(int64(len(n.children)))
}

// walk drains the join of the subtree under root projected onto out —
// variables of the subtree — into a table; the root's total count is the
// walk's exact length unless it saturated.
func (e *enumerator) walk(root *enode, out []int) *relation.Table {
	w := newWalker(e, root, out)
	var data []relation.Value
	if n := root.runSum(0, root.c.Rows()); n < math.MaxInt64/int64(len(out)) {
		data = make([]relation.Value, 0, n*int64(len(out)))
	}
	for w.next() {
		data = append(data, w.row...)
	}
	return relation.NewTableOf(out, data)
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

// walker is the nested loops over the walked nodes in preorder, each node
// ranging over the live rows of its parent's current row's run, run as an
// odometer so the walk can stop after any answer. Subtrees that supply no
// head variable are not walked: the counts already filtered by them.
type walker struct {
	e       *enumerator // its poll
	nodes   []wnode
	row     []relation.Value
	started bool
}

// newWalker lays out the walk of the tree under root projected onto out,
// which must name variables of the tree. Every output variable is written
// by the first node in preorder that holds it.
func newWalker(e *enumerator, root *enode, out []int) *walker {
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
			if len(ch.out) > 0 {
				lay(ch, self)
			}
		}
	}
	lay(root, -1)
	return w
}

// next advances to the next answer and writes it into w.row: the innermost
// node that can step does, and every node after it reopens on its run.
// Below a live row every run holds a live row, so only the root can run
// out.
func (w *walker) next() bool {
	if !w.e.poll() {
		return false
	}
	i := -1
	if w.started {
		for i = len(w.nodes) - 1; i >= 0 && !w.step(i); i-- {
		}
		if i < 0 {
			return false
		}
	}
	w.started = true
	for j := i + 1; j < len(w.nodes); j++ {
		if !w.open(j) {
			return false
		}
	}
	return true
}

// open positions node j on the first live row of the run its parent's
// current row selects.
func (w *walker) open(j int) bool {
	n := &w.nodes[j]
	if n.parent < 0 {
		n.lo, n.hi = 0, n.c.Rows()
	} else if p := &w.nodes[n.parent]; n.at != p.cur {
		for k, pc := range n.pcol {
			n.key[k] = p.c.Value(pc, p.cur)
		}
		n.lo, n.hi = n.c.PrefixRun(n.key)
		n.at = p.cur
	}
	n.cur = n.lo - 1
	return w.step(j)
}

// step moves node j to the next live row of its run and emits its columns.
func (w *walker) step(j int) bool {
	n := &w.nodes[j]
	for n.cur++; n.cur < n.hi; n.cur++ {
		if n.rowCount(n.cur) > 0 {
			for _, em := range n.emit {
				w.row[em[1]] = n.c.Value(em[0], n.cur)
			}
			return true
		}
	}
	return false
}
