package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file is the columnar relation layout behind the worst-case-optimal
// leapfrog join kernel (leapfrog.go): a relation copied into sorted column
// blocks of interned Values over a chosen variable order, plus the trie-style
// iterator (TrieIter) the kernel leapfrogs over. Values are already a dense,
// database-wide, order-preserving int32 code (Database.Intern hands them out
// consecutively), so they are the only code domain: a trie key is one array
// read, a seek one gallop, and two encodings of one database compare
// directly. The layout is immutable after construction and safe for
// concurrent iteration — concurrent executions over one database share its
// relations' cached encodings (Database.Encoded) and walk them through
// per-goroutine iterators.

// A Columnar is a relation over variables stored column by column: columns
// arranged in the caller's variable order, rows sorted lexicographically by
// Value. Construction costs one sort; afterwards the layout supports trie
// iteration (NewTrieIter) and run lookups (Probe) without touching
// row-major data again.
type Columnar struct {
	// Vars is the column order.
	Vars []int
	cols [][]Value // cols[c][r]: column c of row r, rows lexicographically sorted
	rows int

	// runs0[k] is the first row whose leading value is ≥ min0+k: the top
	// trie level as offsets, built on first use (firstRuns) and only for a
	// dense leading column.
	runs0     []int32
	min0      Value
	runs0Once sync.Once
}

// denseRange returns the smallest value of col and the size of its value
// range (max − min + 1), and whether that range is commensurate with the
// column — the one density test of this package. Interned Values are small
// consecutive ints, so a column of database constants passes and everything
// indexed by value − min (a counting-sort pass, the top-level run offsets, a
// projection bitmap) is O(rows); a column with outlying values (hand-built
// tables) fails it and takes the comparison paths.
func denseRange(col []Value) (lo Value, span int, ok bool) {
	if len(col) == 0 {
		return 0, 0, true
	}
	lo, hi := col[0], col[0]
	for _, v := range col {
		lo, hi = min(lo, v), max(hi, v)
	}
	width := int64(hi) - int64(lo) + 1
	return lo, int(width), width <= 4*int64(len(col))+1024
}

// NewColumnar copies t into columnar form with columns arranged in the given
// variable order, which must be a permutation of t.Vars (use SubOrder to
// restrict a global order to a table).
func NewColumnar(t *Table, order []int) *Columnar {
	w := len(order)
	if w != len(t.Vars) {
		panic(fmt.Sprintf("relation: NewColumnar order %v is not a permutation of table vars %v", order, t.Vars))
	}
	cols := make([][]Value, w)
	for i, v := range order {
		c := t.col(v)
		if c < 0 {
			panic(fmt.Sprintf("relation: NewColumnar order %v is not a permutation of table vars %v", order, t.Vars))
		}
		col := make([]Value, t.rows)
		for r := range col {
			col[r] = t.data[r*w+c]
		}
		cols[i] = col
	}
	return sortedColumns(order, cols, t.rows)
}

// BindColumnar evaluates the atom r(args...) straight into columnar form:
// constants and repeated variables select, the columns of the variables in
// order — any of the atom's, each once — are copied in that order, and the
// result is sorted. No row-major Table and no dedup index is
// built: a Relation is a set, and selection drops only columns that are
// constants or repeats of a kept variable, so keeping every variable yields
// distinct rows by construction; sorting makes the duplicates a narrower
// order leaves adjacent, and one Distinct scan removes them.
func BindColumnar(r *Relation, args []Arg, order []int) (*Columnar, error) {
	if len(args) != r.Arity {
		return nil, fmt.Errorf("relation: atom over %s has %d args, relation has arity %d", r.Name, len(args), r.Arity)
	}
	// The selections: columns holding a constant, and columns repeating the
	// variable of an earlier one.
	var consts []int
	var repeats [][2]int
	firstCol := map[int]int{}
	for j, a := range args {
		if !a.IsVar {
			consts = append(consts, j)
		} else if first, seen := firstCol[a.Var]; seen {
			repeats = append(repeats, [2]int{j, first})
		} else {
			firstCol[a.Var] = j
		}
	}
	src := make([]int, len(order))
	for i, v := range order {
		c, ok := firstCol[v]
		if !ok || slices.Contains(order[:i], v) {
			panic(fmt.Sprintf("relation: BindColumnar order %v does not list distinct variables of the atom", order))
		}
		src[i] = c
	}
	n := r.Rows()
	cols := make([][]Value, len(order))
	for i := range cols {
		cols[i] = make([]Value, 0, n)
	}
	kept := 0
rows:
	for i := 0; i < n; i++ {
		tup := r.Row(i)
		for _, j := range consts {
			if tup[j] != args[j].Const {
				continue rows
			}
		}
		for _, eq := range repeats {
			if tup[eq[0]] != tup[eq[1]] {
				continue rows
			}
		}
		for c, s := range src {
			cols[c] = append(cols[c], tup[s])
		}
		kept++
	}
	return sortedColumns(order, cols, kept).Distinct(), nil
}

// NewSortedColumnar copies row-major data over vars, whose rows must already
// be sorted and distinct under vars, into columnar form without the sort
// NewColumnar runs.
func NewSortedColumnar(vars []int, data []Value) *Columnar {
	w := len(vars)
	c := &Columnar{Vars: slices.Clone(vars), cols: make([][]Value, w), rows: len(data) / max(w, 1)}
	for i := range c.cols {
		col := make([]Value, c.rows)
		for r := range col {
			col[r] = data[r*w+i]
		}
		c.cols[i] = col
	}
	return c
}

// Reorder returns c with its columns arranged in the given order — a
// permutation of c.Vars — and its rows re-sorted under it: the column
// slices are permuted, no row-major Table is built.
func (c *Columnar) Reorder(order []int) *Columnar {
	return c.sortedProjection(c.columnsOf(order))
}

// columnsOf returns the column position of each of vars, which must all
// occur in c.
func (c *Columnar) columnsOf(vars []int) []int {
	cols := make([]int, len(vars))
	for i, v := range vars {
		if cols[i] = slices.Index(c.Vars, v); cols[i] < 0 {
			panic(fmt.Sprintf("relation: variable %d not among columnar vars %v", v, c.Vars))
		}
	}
	return cols
}

// sortedColumns wraps the given columns (taking ownership) over vars as a
// Columnar and sorts its rows.
func sortedColumns(vars []int, cols [][]Value, rows int) *Columnar {
	c := &Columnar{Vars: append([]int(nil), vars...), cols: cols, rows: rows}
	c.sortRows()
	return c
}

// sortRows puts the rows in lexicographic order with one stable pass per
// column, last column first (LSD radix): a counting pass over the column's
// value range where that is dense (denseRange) — O(n + range) with no
// comparator calls, which is what keeps the trie build from dominating the
// join on large relations — and a stable comparison sort where it is not.
func (c *Columnar) sortRows() {
	n := c.rows
	if n < 2 {
		return
	}
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	next := make([]int32, n)
	for i := len(c.cols) - 1; i >= 0; i-- {
		col := c.cols[i]
		lo, span, dense := denseRange(col)
		if !dense {
			slices.SortStableFunc(perm, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
			continue
		}
		counts := make([]int32, span+1)
		for _, v := range col {
			counts[v-lo+1]++
		}
		for k := 1; k < len(counts); k++ {
			counts[k] += counts[k-1]
		}
		for _, p := range perm {
			k := col[p] - lo
			next[counts[k]] = p
			counts[k]++
		}
		perm, next = next, perm
	}
	for i, col := range c.cols {
		sorted := make([]Value, n)
		for r, p := range perm {
			sorted[r] = col[p]
		}
		c.cols[i] = sorted
	}
}

// SubOrder returns the subsequence of order whose variables occur in vars —
// the column order a table over vars takes under a global leapfrog order.
func SubOrder(order []int, vars []int) []int {
	out := make([]int, 0, len(vars))
	for _, v := range order {
		if slices.Contains(vars, v) {
			out = append(out, v)
		}
	}
	return out
}

// Rows returns the number of rows.
func (c *Columnar) Rows() int { return c.rows }

// Value returns the value at (column, row).
func (c *Columnar) Value(col, row int) Value { return c.cols[col][row] }

// Table materialises the columnar layout back into a row-major Table, rows
// in sorted order.
func (c *Columnar) Table() *Table {
	w := len(c.Vars)
	out := NewTable(c.Vars)
	out.rows = c.rows
	out.data = make([]Value, c.rows*w)
	for i, col := range c.cols {
		for r, v := range col {
			out.data[r*w+i] = v
		}
	}
	return out
}

// Distinct drops repeated rows, which sorting has made adjacent; c itself
// is returned when it holds none.
func (c *Columnar) Distinct() *Columnar {
	var ranges []int
	kept := 0
	for r := 0; r < c.rows; r++ {
		if r > 0 && c.sameRow(r, r-1) {
			continue
		}
		ranges = keepRows(ranges, r, r+1)
		kept++
	}
	if kept == c.rows {
		return c
	}
	return c.selectRanges(ranges, kept)
}

func (c *Columnar) sameRow(a, b int) bool {
	for _, col := range c.cols {
		if col[a] != col[b] {
			return false
		}
	}
	return true
}

// keepRows appends the row range [lo, hi) to a flattened ascending range
// list, extending the last range when the new one starts where it ends.
func keepRows(ranges []int, lo, hi int) []int {
	if n := len(ranges); n > 0 && ranges[n-1] == lo {
		ranges[n-1] = hi
		return ranges
	}
	return append(ranges, lo, hi)
}

// selectRanges copies the given flattened [start, end) row ranges into a new
// Columnar. Ranges must be ascending and disjoint, so the result stays
// lexicographically sorted.
func (c *Columnar) selectRanges(ranges []int, kept int) *Columnar {
	out := &Columnar{Vars: append([]int(nil), c.Vars...), cols: make([][]Value, len(c.Vars)), rows: kept}
	for i, src := range c.cols {
		col := make([]Value, 0, kept)
		for p := 0; p < len(ranges); p += 2 {
			col = append(col, src[ranges[p]:ranges[p+1]]...)
		}
		out.cols[i] = col
	}
	return out
}

// A Probe finds, row by row of a parent encoding, the run of c's rows whose
// leading columns hold the row's key. The key column slices and c's leading
// run offsets are fetched once, so a one-column dense key is two offset
// reads; a sparse leading column and later key columns gallop. A row with
// the last looked-up key reuses its run. One goroutine per Probe.
type Probe struct {
	keys, cols [][]Value // the parent's key columns, c's leading ones
	runs       []int32   // c.firstRuns() when the key has a column
	min0       Value
	rows       int
	last       int // the parent row of the last lookup, -1 before any
	lo, hi     int
}

// Probe returns the probe of c's runs under a parent encoded as p whose
// column pcol[j] holds c's column j; with no key column p may be nil.
func (c *Columnar) Probe(p *Columnar, pcol []int) Probe {
	pr := Probe{keys: make([][]Value, len(pcol)), cols: c.cols[:len(pcol)], rows: c.rows, last: -1}
	for j, pc := range pcol {
		pr.keys[j] = p.cols[pc]
	}
	if len(pcol) > 0 {
		pr.runs = c.firstRuns()
		pr.min0 = c.min0
	}
	return pr
}

// At positions the probe on parent row r and reports whether that took a
// lookup (false: r's key is the last lookup's, whose run stands).
func (p *Probe) At(r int) bool {
	if len(p.keys) != 1 || p.runs == nil {
		return p.at(r)
	}
	k0 := p.keys[0]
	if p.last >= 0 && k0[r] == k0[p.last] {
		return false
	}
	p.last, p.lo, p.hi = r, 0, 0
	if k := uint64(int64(k0[r]) - int64(p.min0)); k < uint64(len(p.runs)-1) {
		p.lo, p.hi = int(p.runs[k]), int(p.runs[k+1])
	}
	return true
}

// at is At for every key but a one-column dense one.
func (p *Probe) at(r int) bool {
	if p.last >= 0 {
		same := true
		for _, k := range p.keys {
			same = same && k[r] == k[p.last]
		}
		if same {
			return false
		}
	}
	p.last = r
	lo, hi, j := 0, p.rows, 0
	if p.runs != nil {
		lo, hi, j = 0, 0, 1
		if k := uint64(int64(p.keys[0][r]) - int64(p.min0)); k < uint64(len(p.runs)-1) {
			lo, hi = int(p.runs[k]), int(p.runs[k+1])
		}
	}
	for ; j < len(p.keys) && lo < hi; j++ {
		v := p.keys[j][r]
		lo = gallopCodes(p.cols[j], lo, hi, v)
		hi = gallopPast(p.cols[j], lo, hi, v)
	}
	p.lo, p.hi = lo, hi
	return true
}

// Run returns the run [lo, hi) of the last At; lo == hi when it is empty.
func (p *Probe) Run() (lo, hi int) { return p.lo, p.hi }

// firstRuns returns the run offsets of the leading column indexed by
// value − min0 — entry k is the first row whose leading value is ≥ min0+k,
// the last entry the row count — counting them on first use (once:
// encodings are shared between goroutines). It returns nil for a leading
// column too sparse to index by value (denseRange), and for no column.
func (c *Columnar) firstRuns() []int32 {
	c.runs0Once.Do(func() {
		if len(c.cols) == 0 {
			return
		}
		lo, span, dense := denseRange(c.cols[0])
		if !dense {
			return
		}
		runs := make([]int32, span+1)
		for _, v := range c.cols[0] {
			runs[v-lo+1]++
		}
		for k := 1; k < len(runs); k++ {
			runs[k] += runs[k-1]
		}
		c.runs0, c.min0 = runs, lo
	})
	return c.runs0
}

// sortedProjection returns the distinct projection onto the given columns,
// in that order, re-sorted: one pass per picked column — for a single dense
// column, a bitmap over its value range.
func (c *Columnar) sortedProjection(cols []int) *Columnar {
	out := &Columnar{Vars: make([]int, len(cols)), cols: make([][]Value, len(cols)), rows: c.rows}
	for i, j := range cols {
		out.Vars[i], out.cols[i] = c.Vars[j], c.cols[j]
	}
	if len(cols) == 1 {
		if lo, span, dense := denseRange(out.cols[0]); dense {
			present := make([]bool, span)
			for _, v := range out.cols[0] {
				present[v-lo] = true
			}
			col := make([]Value, 0, min(span, c.rows))
			for k, ok := range present {
				if ok {
					col = append(col, lo+Value(k))
				}
			}
			out.cols[0], out.rows = col, len(col)
			return out
		}
	}
	out.sortRows()
	return out.Distinct()
}

// A TrieIter walks a Columnar as a trie: level d enumerates the distinct
// values of column d within the parent prefix's row range. It implements the
// iterator interface of leapfrog triejoin — Open/Up move between levels,
// Next/Seek advance within one. On the top level of a dense leading column
// both are one read of the run offsets (firstRuns); everywhere else they
// gallop (exponential probe + binary search) over the sorted column, so a
// Seek costs O(log run) and a full level sweep O(distinct · log). Iterators
// are cheap cursors; any number may walk one shared Columnar concurrently.
type TrieIter struct {
	c     *Columnar
	depth int // current open level; -1 at the root, before the first Open
	hi    []int
	pos   []int
	runs0 []int32 // c.firstRuns(), fetched by the first Open
}

// NewTrieIter returns an iterator positioned at the trie root (depth -1);
// call Open to descend into the first level.
func NewTrieIter(c *Columnar) *TrieIter {
	w := len(c.Vars)
	return &TrieIter{c: c, depth: -1, hi: make([]int, w), pos: make([]int, w)}
}

// Depth returns the current level (-1 at the root).
func (it *TrieIter) Depth() int { return it.depth }

// AtEnd reports whether the iterator has exhausted the current level.
func (it *TrieIter) AtEnd() bool { return it.pos[it.depth] >= it.hi[it.depth] }

// Key returns the value at the iterator's current position (undefined when
// AtEnd).
func (it *TrieIter) Key() Value {
	d := it.depth
	return it.c.cols[d][it.pos[d]]
}

// Open descends one level, into the sub-trie of the current key (from the
// root: into the whole relation). The new level starts at its first key.
func (it *TrieIter) Open() {
	d := it.depth + 1
	if d == 0 {
		it.hi[0], it.pos[0] = it.c.rows, 0
		it.runs0 = it.c.firstRuns()
		it.depth = 0
		return
	}
	p := it.pos[d-1]
	it.hi[d], it.pos[d] = it.runEnd(d-1, p), p
	it.depth = d
}

// Up returns to the parent level, leaving its position untouched.
func (it *TrieIter) Up() { it.depth-- }

// Next advances to the next distinct key at the current level, past the
// current run.
func (it *TrieIter) Next() {
	d := it.depth
	it.pos[d] = it.runEnd(d, it.pos[d])
}

// Seek advances to the first key ≥ v at the current level; the level is
// AtEnd when no such key remains. Seek never moves backwards.
func (it *TrieIter) Seek(v Value) {
	d := it.depth
	if d == 0 && it.runs0 != nil {
		k := min(max(int64(v)-int64(it.c.min0), 0), int64(len(it.runs0)-1))
		it.pos[0] = max(it.pos[0], int(it.runs0[k]))
		return
	}
	it.pos[d] = gallopCodes(it.c.cols[d], it.pos[d], it.hi[d], v)
}

// runEnd returns the first row past the run of the value at row p in column d.
func (it *TrieIter) runEnd(d, p int) int {
	v := it.c.cols[d][p]
	if d == 0 && it.runs0 != nil {
		return int(it.runs0[v-it.c.min0+1])
	}
	return gallopPast(it.c.cols[d], p+1, it.hi[d], v)
}

// gallopPast returns the first row in [from, hi) whose value in col exceeds
// v — the end of v's run.
func gallopPast(col []Value, from, hi int, v Value) int {
	if v == math.MaxInt32 {
		return hi
	}
	return gallopCodes(col, from, hi, v+1)
}

// gallopCodes returns the first row in [from, hi) whose value in col is ≥
// target: exponential probe to bracket the boundary, then a branch-free
// binary search over the bracket. The search keeps `base` at the last row
// known < target and halves the span length; the body's single comparison
// compiles to a conditional move, so seeks over incompressible runs pay no
// branch mispredictions. TrieIter's leapfrog seeks and Probe's run
// bounds use it.
func gallopCodes(col []Value, from, hi int, target Value) int {
	if from >= hi || col[from] >= target {
		return from
	}
	// col[from] < target: probe 1, 2, 4, ... rows ahead.
	lo, step := from, 1
	for lo+step < hi && col[lo+step] < target {
		lo += step
		step <<= 1
	}
	r := hi
	if lo+step < hi {
		r = lo + step
	}
	// invariant: col[lo] < target ≤ col[r] (or r == hi); the answer lies in
	// (base, base+n] throughout the halving loop.
	base, n := lo, r-lo
	for n > 1 {
		half := n >> 1
		if col[base+half] < target {
			base += half
		}
		n -= half
	}
	return base + 1
}
