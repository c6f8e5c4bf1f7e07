package yannakakis

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"

	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// This file is the enumeration phase (Theorem 4.8) as a cursor, with no
// semijoin, and the Boolean query as its special case. One top-down descent,
// rows, counts: a row's count is the product over its children of the count
// of the run its key selects (each encoding leads with the key shared with
// the parent, so a parent row's child rows are one run, which a
// relation.Probe built once per edge finds) — the up pass computed with
// counts, so a row counts 0 exactly when a semijoin would have deleted it.
// A run is counted on its first visit and memoised by its first row, so the
// descent counts only the runs an answer could reach, each once: the local
// consistency the full reducer establishes, established where it is read.
// A subtree that supplies no head variable only filters its parent, so its
// runs are decided at their first live row; with an empty head that is
// every node, and the descent is the Boolean query's first-witness search. The walk
// then reads the node tables as tries, top-down, and skips the rows the
// descent found dead, which is all the down pass bought it: every partial
// binding extends to an answer, so the first k answers cost O(k · depth)
// after the count. A walk that binds only head variables emits distinct
// rows. Where a node below the root holds a variable the head drops, its
// subtree is folded — counted whole, walked on its own, projected onto its
// key and head variables and deduplicated run by run of the key, so the
// result is again a sorted table — so counts stay distinct and every
// intermediate within |node table| × |answers|. A root holding one is
// folded the same way, run by run of its leading head columns, which a root
// scan puts first: counted run by run, then walked again as the cursor
// advances, so k rows cost the runs that hold them, not a materialised
// table. Counts saturate at math.MaxInt64.

// Answers is one execution's answers over the head variables, as a cursor:
// Count is known on return, Next walks one answer at a time, Materialize
// drains the rest. Rows come in the tree's preorder nested-loop order; after
// a root fold, run by run of the root's leading head columns in the root's
// order, sorted in head order within a run. Under a traced context the
// counting descent records as SpanSemijoinUp (Steps the child runs looked
// up, summed over the tree's edges) and the walk as SpanEnumerate, open until the
// cursor closes (Steps the subtrees folded below the root, Rows the Count);
// a Boolean cursor has no walk, its descent's Rows is 1 or 0. A cursor is for one goroutine.
type Answers struct {
	vars    []int
	count   int
	w       *walker         // the walk of a clean root …
	f       *runFold        // … or the fold of one that is not
	tab     *relation.Table // the answers as a table, when already built
	pos     int             // the next row of tab
	sp      *obs.Span
	err     error
	closed  bool
	onClose func(count int, err error)
}

// NewAnswers counts the answers of the tree under root projected onto head
// and returns the cursor over them. With an empty head it decides the
// Boolean query and holds the empty row or nothing: every node only
// filters, so the descent stops at the root's first live row, the witness —
// O(depth) lookups when that is the first, O(Σ rows) at worst, like a
// bottom-up semijoin pass; children are tried in the tree's order, most
// selective first under a cost model. The tree is only read; the count and
// the walk look at ctx once per pollEvery rows and child runs looked up.
func NewAnswers(ctx context.Context, root *Node, head []int) (*Answers, error) {
	tr := obs.FromContext(ctx)
	e := &enumerator{ctx: ctx, head: map[int]bool{}}
	for _, v := range head {
		e.head[v] = true
	}
	up := tr.StartSpan(obs.SpanSemijoinUp)
	en := e.build(root, nil, true)
	var total int64
	if e.err == nil {
		total = e.rows(en, 0, en.c.Rows())
	}
	up.AddSteps(int64(e.lookups))
	if len(head) == 0 {
		if e.err != nil {
			return nil, e.err
		}
		a := TableAnswers(relation.NewTable(nil))
		if total > 0 {
			a = TableAnswers(relation.TrueTable())
		}
		up.SetRows(a.count)
		up.End()
		return a, nil
	}
	up.End()
	a := &Answers{vars: head, sp: tr.StartSpan(obs.SpanEnumerate)}
	switch {
	case e.err != nil:
	case !en.clean:
		k := 0 // the root's leading head columns: its runs
		for k < len(en.c.Vars) && e.head[en.c.Vars[k]] {
			k++
		}
		// count the fold run by run, then walk it again as the cursor
		a.f = newRunFold(e, en, k, head)
		for a.f.run() != nil {
			a.count += len(a.f.rows) / len(head)
		}
		a.f.lo, a.f.rows = 0, a.f.rows[:0]
	default:
		a.w = newWalker(e, en, head)
		a.count = int(total)
	}
	if e.err != nil {
		a.sp.End()
		return nil, e.err
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
	case a.f != nil:
		if row, ok := a.f.next(); ok {
			return row, true
		}
		a.err = a.f.e.err
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
	if w := len(a.vars); a.tab == nil { // sized for Count up to 4 MiB, grown past it
		data = make([]relation.Value, 0, min(a.count, 1<<20/w)*w)
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
// leads with the key — the variables shared with the parent — and the
// descent's state.
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
	// probe finds this node's run under a parent row, for the descent and
	// then the walk; f is that run's count for the row it last looked up.
	probe relation.Probe
	f     int64
	// live marks the rows the descent counted above 0; nil on a leaf,
	// whose every row is live, and on a subtree that supplies no head
	// variable, which the walk never enters.
	live []bool
	// memo[lo] is ^ the count of the run whose first row is lo, 0 while
	// undecided. It is nil where no run is reached twice, and the count
	// then recurses without memoising: on a leaf, at the root, and on a
	// node whose key is its parent's leading columns (pcol = 0, 1, …) below
	// a parent whose rows are counted in ascending order — the root, or
	// such a node. Its runs are then reached in ascending order, and the
	// probe reuses a run's count while the key stands, so each run is
	// counted once.
	memo []int64
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
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi != 0 || lo > math.MaxInt64 {
		return math.MaxInt64
	}
	return a * b
}

// enumerator is the state of one descent, shared with the walks.
type enumerator struct {
	ctx     context.Context
	head    map[int]bool
	lookups int // the child runs looked up
	folds   int
	err     error // the context's, once a poll saw it cancelled
	left    int   // the work poll may still charge before it looks at ctx
	// the folds' scratch: a run's values, a run's row order
	vals []relation.Value
	idx  []int32
}

// pollEvery is the work between two looks at the context, counted in
// rows and the child runs they may look up.
const pollEvery = 4096

// poll charges w units of work — a row and the child runs it may look up —
// and looks at the context on its first call and whenever pollEvery units
// have been charged since the last look; it reports whether to go on. A
// row that probes many children thus brings the next look closer.
func (e *enumerator) poll(w int) bool {
	if e.left -= w; e.left < 0 {
		e.look()
	}
	return e.err == nil
}

// look is poll's slow path, kept out of line so that poll inlines into the
// row loops.
//
//go:noinline
func (e *enumerator) look() {
	e.left, e.err = pollEvery, e.ctx.Err()
}

// keyed returns n's encoding re-keyed under a parent encoded as p (nil at
// the root) — led by the key, the variables shared with the parent, so a
// parent row's rows of n are one run (a relation.Probe lookup) — and the
// parent column of each key column. The encoding is n's own when the key is
// already its prefix; otherwise it is re-sorted, onto the key alone when
// keyOnly (a node read only for whether a run is empty).
func keyed(n *Node, p *relation.Columnar, keyOnly bool) (c *relation.Columnar, pcol []int) {
	var key, rest []int
	for _, v := range n.Vars() {
		if indexOf(p, v) >= 0 {
			key = append(key, v)
		} else {
			rest = append(rest, v)
		}
	}
	c = n.Enc
	for i := 0; c != nil && i < len(key); i++ {
		if indexOf(p, c.Vars[i]) < 0 {
			c = nil // the key is not the encoding's prefix
		}
	}
	if c == nil && keyOnly {
		c = n.Enc.Reorder(key)
	} else if c == nil {
		c = n.Enc.Reorder(append(key, rest...))
	}
	for _, v := range c.Vars[:len(key)] {
		pcol = append(pcol, indexOf(p, v))
	}
	return c, pcol
}

// build turns the subtree of n into its enumeration tree under a parent
// encoded as p (nil at the root): children first, then — for a non-root
// subtree that drops a variable but supplies head variables — the fold onto
// its key and head variables, run by run of the key, after counting it
// whole. ordered says the parent's rows are counted in ascending order,
// each at most once (see enode.memo).
func (e *enumerator) build(n *Node, p *relation.Columnar, ordered bool) *enode {
	c, pcol := keyed(n, p, len(n.Children) == 0 && len(e.head) == 0)
	for j, pc := range pcol {
		ordered = ordered && pc == j
	}
	en := &enode{c: c, pcol: pcol, clean: true}
	for _, v := range c.Vars[len(pcol):] {
		if e.head[v] {
			en.out = append(en.out, v)
		} else {
			en.clean = false
		}
	}
	for _, ch := range n.Children {
		cn := e.build(ch, c, ordered)
		if e.err != nil {
			return nil
		}
		cn.probe = cn.c.Probe(c, cn.pcol)
		en.children = append(en.children, cn)
		en.out = append(en.out, cn.out...)
	}
	if len(en.children) > 0 && len(en.out) > 0 {
		en.live = make([]bool, c.Rows())
	}
	if !en.clean && p != nil && len(en.out) > 0 {
		e.rows(en, 0, c.Rows())
		keep := append(slices.Clone(c.Vars[:len(pcol)]), en.out...)
		var data []relation.Value
		for f := newRunFold(e, en, len(pcol), keep); f.run() != nil; {
			data = append(data, f.rows...)
		}
		if e.err != nil {
			return nil
		}
		e.folds++
		return &enode{c: relation.NewSortedColumnar(keep, data), pcol: pcol, out: en.out, clean: true}
	}
	if len(en.children) > 0 && !ordered {
		en.memo = make([]int64, c.Rows())
	}
	return en
}

// rows returns the saturating sum of the counts of n's rows [lo, hi) and
// marks the live ones — where n supplies no head variable, 1 at the first
// live row. A row's count is the product over the children of the count of
// the run its key selects, each run counted on its first visit and read
// from the memo after, where it has one; a row with the last looked-up
// row's key reuses that child's factor, and a row a child zeroes looks up
// no later child.
func (e *enumerator) rows(n *enode, lo, hi int) int64 {
	if len(n.children) == 0 {
		if len(n.out) == 0 {
			return int64(min(hi-lo, 1))
		}
		return int64(hi - lo)
	}
	children, live, filter := n.children, n.live, len(n.out) == 0
	work := 1 + len(children)
	var sum int64
	for r := lo; r < hi && e.poll(work); r++ {
		cnt := int64(1)
		for _, ch := range children {
			if ch.probe.At(r) {
				e.lookups++
				clo, chi := ch.probe.Run()
				f := int64(chi - clo)
				switch {
				case f == 0:
				case len(ch.children) == 0: // a leaf
					if len(ch.out) == 0 {
						f = 1
					}
				case ch.memo == nil: // a run reached once
					f = e.rows(ch, clo, chi)
				case ch.memo[clo] != 0:
					f = ^ch.memo[clo]
				default:
					f = e.rows(ch, clo, chi)
					ch.memo[clo] = ^f
				}
				ch.f = f
			}
			if cnt = mulSat(cnt, ch.f); cnt == 0 {
				break
			}
		}
		if cnt > 0 {
			if live != nil {
				live[r] = true
			}
			if sum = addSat(sum, cnt); filter {
				break
			}
		}
	}
	return sum
}

// runFold walks the subtree under n projected onto out one run at a time —
// a run being the rows of n that agree on its first k columns, which out
// must name — and deduplicates each run on its own. Runs come in n's row
// order and differ in a column of out, so no row repeats across runs; with
// out[:k] = n.c.Vars[:k] the rows come sorted over out as a whole. k = 0 is
// one run.
type runFold struct {
	e         *enumerator
	w         *walker
	c         *relation.Columnar
	runs      relation.Probe // c's runs under its own rows
	vary      []int          // the positions of out a run does not fix
	lo        int            // the first row of the next run
	buf, rows []relation.Value
	pos       int // the next row of rows
}

func newRunFold(e *enumerator, n *enode, k int, out []int) *runFold {
	lead := make([]int, k)
	for j := range lead {
		lead[j] = j
	}
	f := &runFold{e: e, w: newWalker(e, n, out), c: n.c, runs: n.c.Probe(n.c, lead)}
	for pos, v := range out {
		if j := indexOf(n.c, v); j < 0 || j >= k {
			f.vary = append(f.vary, pos)
		}
	}
	return f
}

// run advances to the next run that holds an answer and returns its
// distinct rows, row-major and sorted; nil once the runs are exhausted or
// the context is cancelled.
func (f *runFold) run() []relation.Value {
	for f.lo < f.c.Rows() {
		f.runs.At(f.lo)
		_, hi := f.runs.Run()
		f.w.reset(f.lo, hi)
		f.lo = hi
		f.buf = f.buf[:0]
		for f.w.next() {
			f.buf = append(f.buf, f.w.row...)
		}
		if f.e.err != nil {
			return nil
		}
		if f.rows, f.pos = f.e.dedup(f.rows[:0], f.buf, len(f.w.row), f.vary), 0; len(f.rows) > 0 {
			return f.rows
		}
	}
	return nil
}

// next returns the next row of the fold, run by run.
func (f *runFold) next() ([]relation.Value, bool) {
	w := len(f.w.row)
	if f.pos == len(f.rows) && f.run() == nil {
		return nil, false
	}
	f.pos += w
	return f.rows[f.pos-w : f.pos], true
}

// dedup appends to data the distinct rows of buf — one run's rows of width
// w, which agree outside the positions vary — in sorted order: where one
// position varies, its values sorted and compacted; where more do, the
// rows sorted by index and repeats skipped.
func (e *enumerator) dedup(data, buf []relation.Value, w int, vary []int) []relation.Value {
	if len(buf) == 0 {
		return data
	}
	if len(vary) == 1 {
		p, vals := vary[0], e.vals[:0]
		for i := p; i < len(buf); i += w {
			vals = append(vals, buf[i])
		}
		slices.Sort(vals)
		for _, v := range slices.Compact(vals) {
			data = append(data, buf[:w]...)
			data[len(data)-w+p] = v
		}
		e.vals = vals
		return data
	}
	rowCmp := func(a, b int32) int {
		for _, p := range vary {
			if c := cmp.Compare(buf[int(a)*w+p], buf[int(b)*w+p]); c != 0 {
				return c
			}
		}
		return 0
	}
	idx := e.idx[:0]
	for i := range int32(len(buf) / w) {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, rowCmp)
	for j, i := range idx {
		if j == 0 || rowCmp(idx[j-1], i) != 0 {
			data = append(data, buf[int(i)*w:int(i+1)*w]...)
		}
	}
	e.idx = idx
	return data
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
	cur    int      // current row
	lo, hi int
}

// walker is the nested loops over the walked nodes in preorder, each node
// ranging over the live rows of its parent's current row's run, run as an
// odometer so the walk can stop after any answer. Subtrees that supply no
// head variable are not walked: the descent already filtered by them.
type walker struct {
	e       *enumerator // its poll
	nodes   []wnode
	row     []relation.Value
	lo, hi  int // the root rows walked
	started bool
}

// newWalker lays out the walk of the tree under root projected onto out,
// which must name variables of the tree. Every output variable is written
// by the first node in preorder that holds it.
func newWalker(e *enumerator, root *enode, out []int) *walker {
	w := &walker{e: e, row: make([]relation.Value, len(out)), hi: root.c.Rows()}
	filled := make([]bool, len(out))
	var lay func(n *enode, parent int)
	lay = func(n *enode, parent int) {
		wn := wnode{enode: n, parent: parent}
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

// reset restarts the walk over the root rows [lo, hi) only.
func (w *walker) reset(lo, hi int) {
	w.lo, w.hi, w.started = lo, hi, false
}

// next advances to the next answer and writes it into w.row: the innermost
// node that can step does, and every node after it reopens on its run.
// Below a live row every run holds a live row, so only the root can run
// out.
func (w *walker) next() bool {
	if !w.e.poll(1) {
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
		n.lo, n.hi = w.lo, w.hi
	} else {
		n.probe.At(w.nodes[n.parent].cur)
		n.lo, n.hi = n.probe.Run()
	}
	n.cur = n.lo - 1
	return w.step(j)
}

// step moves node j to the next live row of its run and emits its columns.
func (w *walker) step(j int) bool {
	n := &w.nodes[j]
	for n.cur++; n.cur < n.hi; n.cur++ {
		if n.live == nil || n.live[n.cur] {
			for _, em := range n.emit {
				w.row[em[1]] = n.c.Value(em[0], n.cur)
			}
			return true
		}
	}
	return false
}
