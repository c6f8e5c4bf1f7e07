package relation

import "slices"

// This file is the sort-based semijoin over Columnar blocks: because both
// operands keep their rows lexicographically sorted, a semijoin reduces to
// one linear merge of prefix runs with galloping skips — no hash table is
// built and no row-major data is touched. It is the full reducer's kernel
// whatever the two column orders; the hash Table.Semijoin is the oracle the
// tests hold it to.

// MergeSemijoin returns t's rows whose shared-variable projection occurs in
// u. u is navigated as a trie over the shared variables: directly when they
// are exactly its leading columns, otherwise through its distinct projection
// onto them, re-sorted once (sortedProjection) — so no string key is ever
// built. Two kernels then cover every case:
//
//   - aligned merge, when t's first k columns name the shared variables in
//     the trie's exact order: one forward walk over t's distinct k-prefix
//     runs, advancing a TrieIter with galloping seeks — strictly linear in
//     the shorter side's runs, with log-sized skips over the longer;
//   - trie probe, when t holds the shared variables elsewhere: each t row
//     narrows the sorted columns level by level (PrefixRun).
//
// Both sides hold interned Values, so keys compare directly. When no row is
// filtered the result is t itself. Row order — hence sortedness — is
// preserved.
func MergeSemijoin(t, u *Columnar) *Columnar {
	// u's columns holding the shared variables, in t's column order.
	var ucol []int
	for _, v := range t.Vars {
		if j := slices.Index(u.Vars, v); j >= 0 {
			ucol = append(ucol, j)
		}
	}
	k := len(ucol)
	prefix := true // the shared variables are exactly u's leading columns
	for _, j := range ucol {
		prefix = prefix && j < k
	}
	switch {
	case k == 0 && u.rows > 0, t.rows == 0:
		// No shared variables: the semijoin keeps everything iff u is
		// non-empty (the Boolean convention Table.Semijoin follows too).
		return t
	case u.rows == 0:
		return t.selectRanges(nil, 0)
	case !prefix:
		u = u.sortedProjection(ucol)
	}
	aligned := true
	for j := 0; j < k; j++ {
		aligned = aligned && t.Vars[j] == u.Vars[j]
	}
	if aligned {
		return t.mergeSemijoinAligned(u, k)
	}
	return t.mergeSemijoinProbe(u, k)
}

// mergeSemijoinAligned is the linear-merge kernel: both operands expose the
// k shared variables as their first k columns in the same order.
func (t *Columnar) mergeSemijoinAligned(u *Columnar, k int) *Columnar {
	it := NewTrieIter(u)
	it.Open()
	var ranges []int // kept row ranges, flattened [start0, end0, start1, ...]
	kept := 0
	ends := make([]int, k)
	r0 := 0
	d0 := 0      // first t column whose value changed versus the previous run
	matched := 0 // u levels 0..matched-1 currently hold t's run prefix
	for r0 < t.rows {
		// Bracket the current run of t's k-prefix: nested galloped run ends,
		// levels below d0 unchanged from the previous run.
		bound := t.rows
		if d0 > 0 {
			bound = ends[d0-1]
		}
		for j := d0; j < k; j++ {
			bound = gallopPast(t.cols[j], r0+1, bound, t.cols[j][r0])
			ends[j] = bound
		}
		r1 := ends[k-1]
		// If the first changed level sits below u's deepest failure, the
		// failing prefix is unchanged — the whole run is doomed, skip it
		// without touching the iterator.
		if d0 <= matched {
			for it.Depth() > d0 {
				it.Up()
			}
			matched = d0
			for j := d0; j < k; j++ {
				if it.Depth() < j {
					it.Open()
				}
				v := t.cols[j][r0]
				it.Seek(v)
				if it.AtEnd() || it.Key() != v {
					matched = j
					break
				}
				matched = j + 1
			}
			if matched == k {
				ranges = keepRows(ranges, r0, r1)
				kept += r1 - r0
			}
		}
		// First differing level of the next run: the shallowest nested run
		// that ends exactly where this one does.
		r0 = r1
		d0 = 0
		for d0 < k && ends[d0] != r1 {
			d0++
		}
	}
	if kept == t.rows {
		return t
	}
	return t.selectRanges(ranges, kept)
}

// mergeSemijoinProbe is the trie-probe kernel: u exposes the shared
// variables as a prefix but t holds them at arbitrary positions, so each t
// row descends u's trie (PrefixRun).
func (t *Columnar) mergeSemijoinProbe(u *Columnar, k int) *Columnar {
	tcol := t.columnsOf(u.Vars[:k])
	var ranges []int
	kept := 0
	key := make([]Value, k)
	for r := 0; r < t.rows; r++ {
		for j, c := range tcol {
			key[j] = t.cols[c][r]
		}
		if lo, hi := u.PrefixRun(key); lo == hi {
			continue
		}
		ranges = keepRows(ranges, r, r+1)
		kept++
	}
	if kept == t.rows {
		return t
	}
	return t.selectRanges(ranges, kept)
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
func (t *Columnar) selectRanges(ranges []int, kept int) *Columnar {
	out := &Columnar{Vars: append([]int(nil), t.Vars...), cols: make([][]Value, len(t.Vars)), rows: kept}
	for i, src := range t.cols {
		col := make([]Value, 0, kept)
		for p := 0; p < len(ranges); p += 2 {
			col = append(col, src[ranges[p]:ranges[p+1]]...)
		}
		out.cols[i] = col
	}
	return out
}
