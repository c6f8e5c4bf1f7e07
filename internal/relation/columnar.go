package relation

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// This file is the columnar relation layout behind the worst-case-optimal
// leapfrog join kernel (leapfrog.go): a Table copied into sorted,
// dictionary-encoded column blocks over a chosen variable order, plus the
// trie-style iterator (TrieIter) the kernel leapfrogs over. The layout is
// immutable after construction and safe for concurrent iteration — the
// sharded evaluator builds the broadcast side once and probes it from every
// shard goroutine through per-goroutine iterators.

// A Dict is a per-column integer dictionary: the column's distinct values in
// ascending order. Codes (indices into the dictionary) are order-isomorphic
// to values, so all trie navigation runs on dense int32 codes and decodes to
// interned Values only at the output boundary.
type Dict struct {
	vals []Value
	// index, when non-nil, maps a Value to its code plus one (0: absent) —
	// the dense-range dictionaries newDictCodes builds keep their counting
	// table, so exact lookups are one array read.
	index []int32
}

// newDict builds the dictionary of the given (unsorted, possibly duplicated)
// column values.
func newDict(vals []Value) *Dict {
	sorted := append([]Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return &Dict{vals: out}
}

// newDictCodes builds the column's dictionary and writes each row's code into
// codes. Interned Values are small dense ints (Database interns constants
// consecutively), so when the value range is commensurate with the column a
// counting pass over the range replaces the comparator sort and every code
// assignment is one array read; columns with outlying values (hand-built
// tables) fall back to newDict plus binary-search encoding.
func newDictCodes(vals []Value, codes []int32) *Dict {
	maxV := Value(-1)
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
		if v < 0 {
			maxV = Value(1<<31 - 1) // negative values: force the sort path
			break
		}
	}
	if int64(maxV) >= 4*int64(len(vals))+1024 {
		d := newDict(vals)
		for r, v := range vals {
			codes[r], _ = d.Code(v)
		}
		return d
	}
	lookup := make([]int32, int(maxV)+1)
	for _, v := range vals {
		lookup[v] = 1
	}
	out := make([]Value, 0, len(vals))
	for v, seen := range lookup {
		if seen != 0 {
			out = append(out, Value(v))
			lookup[v] = int32(len(out))
		}
	}
	for r, v := range vals {
		codes[r] = lookup[v] - 1
	}
	return &Dict{vals: out, index: lookup}
}

// Len returns the number of distinct values in the column.
func (d *Dict) Len() int { return len(d.vals) }

// Value decodes a dictionary code back to its interned Value.
func (d *Dict) Value(code int32) Value { return d.vals[code] }

// SeekCode returns the smallest code whose value is ≥ v, or Len() when every
// dictionary value is below v (binary search).
func (d *Dict) SeekCode(v Value) int32 {
	lo, hi := 0, len(d.vals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// Code returns the code of v and whether v occurs in the column.
func (d *Dict) Code(v Value) (int32, bool) {
	if d.index != nil {
		if v < 0 || int(v) >= len(d.index) {
			return 0, false
		}
		return d.index[v] - 1, d.index[v] != 0
	}
	c := d.SeekCode(v)
	if int(c) < len(d.vals) && d.vals[c] == v {
		return c, true
	}
	return 0, false
}

// A Columnar is a columnar, dictionary-encoded copy of a Table: one Dict and
// one code block per column, columns arranged in the caller's variable
// order, rows sorted lexicographically by code (equivalently, by value —
// dictionaries preserve order). Construction costs one sort; afterwards the
// layout supports trie iteration (NewTrieIter), run-based prefix projection
// (Prefix) and code-domain semijoins without touching row-major data again.
type Columnar struct {
	// Vars is the column order (a permutation of the source table's Vars).
	Vars  []int
	dicts []*Dict
	codes [][]int32 // codes[c][r]: column c of row r, rows lexicographically sorted
	rows  int

	// runs0[k] is the first row whose leading code is ≥ k: the top trie
	// level as offsets, built on the first PrefixRun (firstRuns).
	runs0     []int32
	runs0Once sync.Once
}

// NewColumnar copies t into columnar form with columns arranged in the given
// variable order, which must be a permutation of t.Vars (use SubOrder to
// restrict a global order to a table).
func NewColumnar(t *Table, order []int) *Columnar {
	w := len(order)
	if w != len(t.Vars) {
		panic(fmt.Sprintf("relation: NewColumnar order %v is not a permutation of table vars %v", order, t.Vars))
	}
	src := make([]int, w)
	for i, v := range order {
		c := t.col(v)
		if c < 0 {
			panic(fmt.Sprintf("relation: NewColumnar order %v is not a permutation of table vars %v", order, t.Vars))
		}
		src[i] = c
	}
	n := t.rows
	cn := &Columnar{Vars: append([]int(nil), order...), dicts: make([]*Dict, w), codes: make([][]int32, w), rows: n}

	// Encode column by column: dictionary and codes in one counting pass.
	colVals := make([]Value, n)
	for i := 0; i < w; i++ {
		c := src[i]
		for r := 0; r < n; r++ {
			colVals[r] = t.data[r*w+c]
		}
		col := make([]int32, n)
		cn.dicts[i] = newDictCodes(colVals, col)
		cn.codes[i] = col
	}

	cn.sortRows()
	return cn
}

// sortRows puts the rows in lexicographic code order with one stable
// counting pass per column, last column first (LSD radix over dictionary
// codes): dense codes make each pass O(n + |dict|) with no comparator
// calls, which is what keeps the trie build from dominating the join on
// large relations.
func (c *Columnar) sortRows() {
	n := c.rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	next := make([]int, n)
	for i := len(c.codes) - 1; i >= 0; i-- {
		col := c.codes[i]
		counts := make([]int, c.dicts[i].Len()+1)
		for _, p := range perm {
			counts[col[p]+1]++
		}
		for k := 1; k < len(counts); k++ {
			counts[k] += counts[k-1]
		}
		for _, p := range perm {
			k := col[p]
			next[counts[k]] = p
			counts[k]++
		}
		perm, next = next, perm
	}
	for i, col := range c.codes {
		sorted := make([]int32, n)
		for r, p := range perm {
			sorted[r] = col[p]
		}
		c.codes[i] = sorted
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

// NumCols returns the number of columns.
func (c *Columnar) NumCols() int { return len(c.Vars) }

// Dict returns column i's dictionary.
func (c *Columnar) Dict(i int) *Dict { return c.dicts[i] }

// Value returns the decoded value at (column, row).
func (c *Columnar) Value(col, row int) Value { return c.dicts[col].Value(c.codes[col][row]) }

// Table materialises the columnar layout back into a row-major Table, rows
// in sorted order.
func (c *Columnar) Table() *Table {
	w := len(c.Vars)
	out := NewTable(c.Vars)
	out.rows = c.rows
	out.data = make([]Value, c.rows*w)
	for i, col := range c.codes {
		vals := c.dicts[i].vals
		for r, code := range col {
			out.data[r*w+i] = vals[code]
		}
	}
	return out
}

// Prefix returns the distinct projection onto the first k columns, still in
// columnar form and sharing c's dictionaries. Because rows are
// lexicographically sorted, distinct prefixes are exactly the run
// boundaries — the projection is one scan with no hashing and no dedup
// buffer (the "cheap projection" the sorted layout buys).
func (c *Columnar) Prefix(k int) *Columnar {
	if k == len(c.Vars) {
		return c
	}
	return (&Columnar{Vars: c.Vars[:k], dicts: c.dicts[:k], codes: c.codes[:k], rows: c.rows}).Distinct()
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
	for _, col := range c.codes {
		if col[a] != col[b] {
			return false
		}
	}
	return true
}

// PrefixRun returns the row range [lo, hi) whose leading len(key) columns
// hold exactly key, as a trie descent: the top level is one read of the
// run offsets, each deeper level a galloped narrowing; the range is empty
// when no row matches. Enumeration finds each parent row's matching child
// rows with it.
func (c *Columnar) PrefixRun(key []Value) (lo, hi int) {
	hi = c.rows
	for j, v := range key {
		code, ok := c.dicts[j].Code(v)
		if !ok {
			return 0, 0
		}
		if j == 0 {
			runs := c.firstRuns()
			lo, hi = int(runs[code]), int(runs[code+1])
		} else {
			lo = gallopCodes(c.codes[j], lo, hi, code)
			hi = gallopCodes(c.codes[j], lo, hi, code+1)
		}
		if lo == hi {
			return 0, 0
		}
	}
	return lo, hi
}

// firstRuns returns the run offsets of the leading column, counting them on
// first use (once: encodings are shared between goroutines).
func (c *Columnar) firstRuns() []int32 {
	c.runs0Once.Do(func() {
		runs := make([]int32, c.dicts[0].Len()+1)
		for _, code := range c.codes[0] {
			runs[code+1]++
		}
		for k := 1; k < len(runs); k++ {
			runs[k] += runs[k-1]
		}
		c.runs0 = runs
	})
	return c.runs0
}

// sortedProjection returns the distinct projection onto the given columns,
// in that order, re-sorted in the code domain: the dictionaries are reused,
// so the price is one counting pass per picked column — for a single
// column, a bitmap over its dictionary.
func (c *Columnar) sortedProjection(cols []int) *Columnar {
	out := &Columnar{Vars: make([]int, len(cols)), dicts: make([]*Dict, len(cols)), codes: make([][]int32, len(cols)), rows: c.rows}
	for i, j := range cols {
		out.Vars[i], out.dicts[i], out.codes[i] = c.Vars[j], c.dicts[j], c.codes[j]
	}
	if len(cols) != 1 {
		out.sortRows()
		return out.Distinct()
	}
	present := make([]bool, out.dicts[0].Len())
	for _, code := range out.codes[0] {
		present[code] = true
	}
	col := make([]int32, 0, len(present))
	for code, ok := range present {
		if ok {
			col = append(col, int32(code))
		}
	}
	out.codes[0], out.rows = col, len(col)
	return out
}

// A TrieIter walks a Columnar as a trie: level d enumerates the distinct
// values of column d within the parent prefix's row range. It implements the
// iterator interface of leapfrog triejoin — Open/Up move between levels,
// Next/Seek advance within one — with galloping (exponential probe + binary
// search) over the sorted code blocks, so a Seek costs O(log run) and a full
// level sweep costs O(distinct · log). Iterators are cheap cursors; any
// number may walk one shared Columnar concurrently.
type TrieIter struct {
	c     *Columnar
	depth int // current open level; -1 at the root, before the first Open
	lo    []int
	hi    []int
	pos   []int
}

// NewTrieIter returns an iterator positioned at the trie root (depth -1);
// call Open to descend into the first level.
func NewTrieIter(c *Columnar) *TrieIter {
	w := len(c.Vars)
	return &TrieIter{c: c, depth: -1, lo: make([]int, w), hi: make([]int, w), pos: make([]int, w)}
}

// Depth returns the current level (-1 at the root).
func (it *TrieIter) Depth() int { return it.depth }

// AtEnd reports whether the iterator has exhausted the current level.
func (it *TrieIter) AtEnd() bool { return it.pos[it.depth] >= it.hi[it.depth] }

// Key returns the value at the iterator's current position (undefined when
// AtEnd).
func (it *TrieIter) Key() Value {
	d := it.depth
	return it.c.dicts[d].Value(it.c.codes[d][it.pos[d]])
}

// Open descends one level, into the sub-trie of the current key (from the
// root: into the whole relation). The new level starts at its first key.
func (it *TrieIter) Open() {
	d := it.depth + 1
	if d == 0 {
		it.lo[0], it.hi[0], it.pos[0] = 0, it.c.rows, 0
		it.depth = 0
		return
	}
	p := it.pos[d-1]
	it.lo[d], it.hi[d], it.pos[d] = p, it.runEnd(d-1, p), p
	it.depth = d
}

// Up returns to the parent level, leaving its position untouched.
func (it *TrieIter) Up() { it.depth-- }

// Next advances to the next distinct key at the current level (one gallop
// past the current run).
func (it *TrieIter) Next() {
	d := it.depth
	it.pos[d] = it.runEnd(d, it.pos[d])
}

// Seek advances to the first key ≥ v at the current level; the level is
// AtEnd when no such key remains. Seek never moves backwards.
func (it *TrieIter) Seek(v Value) {
	d := it.depth
	target := it.c.dicts[d].SeekCode(v)
	if int(target) >= it.c.dicts[d].Len() {
		it.pos[d] = it.hi[d]
		return
	}
	it.pos[d] = it.gallop(d, it.pos[d], target)
}

// runEnd returns the first row past the run of the code at row p in column d.
func (it *TrieIter) runEnd(d, p int) int {
	return it.gallop(d, p+1, it.c.codes[d][p]+1)
}

// gallop returns the first row in [from, hi[d]) whose code in column d is
// ≥ target: exponential probe to bracket the boundary, then binary search.
func (it *TrieIter) gallop(d, from int, target int32) int {
	return gallopCodes(it.c.codes[d], from, it.hi[d], target)
}

// gallopCodes returns the first row in [from, hi) whose code in col is ≥
// target: exponential probe to bracket the boundary, then a branch-free
// binary search over the bracket. The search keeps `base` at the last row
// known < target and halves the span length; the body's single comparison
// compiles to a conditional move, so seeks over incompressible code runs
// pay no branch mispredictions. Shared by TrieIter (leapfrog seeks) and
// MergeSemijoin (run skipping).
func gallopCodes(col []int32, from, hi int, target int32) int {
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
