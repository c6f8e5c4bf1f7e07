package relation

import (
	"math/rand"
	"sort"
	"testing"
)

func TestDict(t *testing.T) {
	d := newDict([]Value{5, 3, 5, 9, 3, 1})
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	for i, want := range []Value{1, 3, 5, 9} {
		if d.Value(int32(i)) != want {
			t.Fatalf("Value(%d) = %d, want %d", i, d.Value(int32(i)), want)
		}
	}
	if c, ok := d.Code(5); !ok || c != 2 {
		t.Fatalf("Code(5) = %d,%v", c, ok)
	}
	if _, ok := d.Code(4); ok {
		t.Fatal("Code(4) found an absent value")
	}
	for _, tc := range []struct {
		v    Value
		want int32
	}{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {9, 3}, {10, 4}} {
		if got := d.SeekCode(tc.v); got != tc.want {
			t.Fatalf("SeekCode(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestColumnarRoundTripAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		vars := []int{3, 1, 7}
		tab := NewTable(vars)
		for i := 0; i < rng.Intn(50); i++ {
			tab.addRow([]Value{Value(rng.Intn(6)), Value(rng.Intn(6)), Value(rng.Intn(6))})
		}
		tab.dedup()
		order := []int{7, 3, 1}
		c := NewColumnar(tab, order)
		if c.Rows() != tab.Rows() || c.NumCols() != 3 {
			t.Fatalf("trial %d: shape %dx%d, want %dx3", trial, c.Rows(), c.NumCols(), tab.Rows())
		}
		back := c.Table()
		if !back.Equal(tab) {
			t.Fatalf("trial %d: Table() round trip lost rows", trial)
		}
		// rows must come out lexicographically sorted in the column order
		for r := 1; r < c.Rows(); r++ {
			prev, cur := back.Row(r-1), back.Row(r)
			cmp := 0
			for i := range cur {
				if prev[i] != cur[i] {
					if prev[i] < cur[i] {
						cmp = -1
					} else {
						cmp = 1
					}
					break
				}
			}
			if cmp >= 0 {
				t.Fatalf("trial %d: rows %d,%d not strictly sorted: %v then %v", trial, r-1, r, prev, cur)
			}
		}
	}
}

func TestColumnarProject(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		vars := []int{0, 1, 2}
		tab := NewTable(vars)
		for i := 0; i < 5+rng.Intn(40); i++ {
			tab.addRow([]Value{Value(rng.Intn(4)), Value(rng.Intn(4)), Value(rng.Intn(4))})
		}
		tab.dedup()
		c := NewColumnar(tab, vars)
		for _, proj := range [][]int{{0}, {0, 1}, {0, 1, 2}, {2}, {2, 0}, {1}} {
			want := tab.Project(proj)
			if got := c.sortedProjection(proj).Table(); !got.Equal(want) {
				t.Fatalf("trial %d: sortedProjection(%v) disagrees with Table.Project", trial, proj)
			}
			if proj[0] == 0 { // a column prefix: the run-boundary scan applies
				if got := c.Prefix(len(proj)).Table(); !got.Equal(want) {
					t.Fatalf("trial %d: Prefix(%d) disagrees with Table.Project", trial, len(proj))
				}
			}
		}
	}
	// Boolean projection: zero columns, non-empty input → the single empty row.
	tab := tableOf([]int{0}, []Value{1}, []Value{2})
	if got := NewColumnar(tab, []int{0}).Prefix(0).Table(); got.Rows() != 1 || len(got.Vars) != 0 {
		t.Fatalf("Prefix(0) on non-empty = %d rows", got.Rows())
	}
	empty := NewTable([]int{0})
	if got := NewColumnar(empty, []int{0}).Prefix(0).Table(); got.Rows() != 0 {
		t.Fatal("Prefix(0) on empty table must be empty")
	}
}

func TestTrieIterWalk(t *testing.T) {
	tab := tableOf([]int{0, 1},
		[]Value{1, 10}, []Value{1, 20}, []Value{3, 10}, []Value{5, 30}, []Value{5, 40}, []Value{5, 50})
	c := NewColumnar(tab, []int{0, 1})
	it := NewTrieIter(c)
	if it.Depth() != -1 {
		t.Fatalf("fresh iter depth %d", it.Depth())
	}
	it.Open()
	var walk [][2]Value
	for ; !it.AtEnd(); it.Next() {
		x := it.Key()
		it.Open()
		for ; !it.AtEnd(); it.Next() {
			walk = append(walk, [2]Value{x, it.Key()})
		}
		it.Up()
	}
	want := [][2]Value{{1, 10}, {1, 20}, {3, 10}, {5, 30}, {5, 40}, {5, 50}}
	if len(walk) != len(want) {
		t.Fatalf("walk %v, want %v", walk, want)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("walk %v, want %v", walk, want)
		}
	}

	// Seek semantics at the top level: ≥ target, never backwards.
	it = NewTrieIter(c)
	it.Open()
	it.Seek(2)
	if it.AtEnd() || it.Key() != 3 {
		t.Fatalf("Seek(2) landed wrong")
	}
	it.Seek(3)
	if it.Key() != 3 {
		t.Fatal("Seek to current key must not move")
	}
	it.Seek(4)
	if it.AtEnd() || it.Key() != 5 {
		t.Fatal("Seek(4) must land on 5")
	}
	it.Seek(6)
	if !it.AtEnd() {
		t.Fatal("Seek past the last key must end the level")
	}
	// Seek within a sub-trie respects the prefix bounds.
	it = NewTrieIter(c)
	it.Open()
	it.Seek(5)
	it.Open()
	it.Seek(35)
	if it.AtEnd() || it.Key() != 40 {
		t.Fatal("nested Seek(35) under prefix 5 must land on 40")
	}
	it.Seek(60)
	if !it.AtEnd() {
		t.Fatal("nested Seek past the run must end the level")
	}
}

func TestSubOrder(t *testing.T) {
	got := SubOrder([]int{4, 2, 9, 0}, []int{0, 9})
	if len(got) != 2 || got[0] != 9 || got[1] != 0 {
		t.Fatalf("SubOrder = %v, want [9 0]", got)
	}
	if got := SubOrder([]int{1, 2}, nil); len(got) != 0 {
		t.Fatalf("empty vars SubOrder = %v", got)
	}
}

// randomTable builds a deduped table over vars with rows drawn from [0, dom).
func randomTable(rng *rand.Rand, vars []int, n, dom int) *Table {
	t := NewTable(vars)
	row := make([]Value, len(vars))
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = Value(rng.Intn(dom))
		}
		t.addRow(row)
	}
	t.dedup()
	return t
}

// chainJoinProject is the reference semantics: fold binary hash joins, then
// a distinct projection onto out.
func chainJoinProject(tables []*Table, out []int) *Table {
	acc := tables[0]
	for _, t := range tables[1:] {
		acc = acc.Join(t)
	}
	return acc.Project(out)
}

func TestLeapfrogTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		dom := 2 + rng.Intn(6)
		n := 1 + rng.Intn(40)
		r := randomTable(rng, []int{0, 1}, n, dom)
		s := randomTable(rng, []int{1, 2}, n, dom)
		u := randomTable(rng, []int{0, 2}, n, dom)
		order := []int{0, 1, 2}
		for nOut := 0; nOut <= 3; nOut++ {
			want := chainJoinProject([]*Table{r, s, u}, order[:nOut])
			got := LeapfrogJoin([]*Table{r, s, u}, order, nOut, 0)
			if !got.Equal(want) {
				t.Fatalf("trial %d nOut=%d: leapfrog %d rows, chain %d rows", trial, nOut, got.Rows(), want.Rows())
			}
		}
	}
}

func TestLeapfrogRandomOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		// 2–4 tables over random subsets of 4 variables, every variable covered.
		allVars := []int{0, 1, 2, 3}
		nt := 2 + rng.Intn(3)
		tables := make([]*Table, nt)
		covered := map[int]bool{}
		for i := range tables {
			var vars []int
			for _, v := range allVars {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				vars = []int{allVars[rng.Intn(4)]}
			}
			for _, v := range vars {
				covered[v] = true
			}
			tables[i] = randomTable(rng, vars, 1+rng.Intn(30), 2+rng.Intn(5))
		}
		var order []int
		for _, v := range allVars {
			if covered[v] {
				order = append(order, v)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		nOut := rng.Intn(len(order) + 1)
		want := chainJoinProject(tables, order[:nOut])
		got := LeapfrogJoin(tables, order, nOut, 7)
		if !got.Equal(want) {
			t.Fatalf("trial %d: leapfrog disagrees with chain (order %v, nOut %d)", trial, order, nOut)
		}
		// Output must arrive sorted and distinct (no dedup pass ran).
		for r := 1; r < got.Rows(); r++ {
			prev, cur := got.Row(r-1), got.Row(r)
			less := false
			for i := range cur {
				if prev[i] != cur[i] {
					less = prev[i] < cur[i]
					break
				}
			}
			if !less {
				t.Fatalf("trial %d: output rows %d,%d not strictly ascending", trial, r-1, r)
			}
		}
	}
}

func TestLeapfrogEdgeCases(t *testing.T) {
	// Empty input table → empty output, even with a cap hint.
	r := NewTable([]int{0, 1})
	s := tableOf([]int{1, 2}, []Value{1, 2})
	if got := LeapfrogJoin([]*Table{r, s}, []int{0, 1, 2}, 3, 100); got.Rows() != 0 {
		t.Fatal("join with an empty table must be empty")
	}
	// All-Boolean join: no variables, non-empty tables → true.
	if got := LeapfrogJoin([]*Table{TrueTable(), TrueTable()}, nil, 0, 0); got.Rows() != 1 {
		t.Fatal("Boolean true join lost its row")
	}
	// Single table: leapfrog degenerates to sort + projection.
	tab := tableOf([]int{0, 1}, []Value{2, 1}, []Value{1, 1}, []Value{2, 9})
	got := LeapfrogJoin([]*Table{tab}, []int{1, 0}, 1, 0)
	if want := tab.Project([]int{1}); !got.Equal(want) {
		t.Fatal("single-table leapfrog projection wrong")
	}
	// Shared Columnars across concurrent joins (the sharded usage pattern).
	big := randomTable(rand.New(rand.NewSource(1)), []int{0, 1}, 200, 10)
	c := NewColumnar(big, []int{0, 1})
	done := make(chan *Table, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- LeapfrogJoinColumnar([]*Columnar{c, c}, []int{0, 1}, 2, 0)
		}()
	}
	want := big.Clone()
	sortRows(want)
	for i := 0; i < 8; i++ {
		if got := <-done; !got.Equal(want) {
			t.Fatal("concurrent shared-columnar join corrupted")
		}
	}
}

// sortRows puts a table's rows in lexicographic order, for comparisons.
func sortRows(t *Table) {
	w := len(t.Vars)
	rows := make([][]Value, t.rows)
	for i := range rows {
		rows[i] = append([]Value(nil), t.Row(i)...)
	}
	sort.Slice(rows, func(a, b int) bool {
		for i := 0; i < w; i++ {
			if rows[a][i] != rows[b][i] {
				return rows[a][i] < rows[b][i]
			}
		}
		return false
	})
	t.data = t.data[:0]
	for _, r := range rows {
		t.data = append(t.data, r...)
	}
}

func TestNewColumnarSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tab := randomTable(rng, []int{2, 0, 5}, rng.Intn(60), 2+rng.Intn(8))
		sortRows(tab)
		c := NewColumnarSorted(tab)
		if !c.Table().Equal(tab) {
			t.Fatalf("trial %d: NewColumnarSorted round trip lost rows", trial)
		}
		// The encoding must agree with the sorting constructor, column order
		// being the table's own.
		want := NewColumnar(tab, tab.Vars)
		if !c.Table().Equal(want.Table()) {
			t.Fatalf("trial %d: sorted and sorting constructors disagree", trial)
		}
		for i := range c.codes {
			for r := range c.codes[i] {
				if c.codes[i][r] != want.codes[i][r] {
					t.Fatalf("trial %d: code blocks differ at col %d row %d", trial, i, r)
				}
			}
		}
	}
}

func TestMergeSemijoinAlignedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		dom := 2 + rng.Intn(6)
		tt := randomTable(rng, []int{0, 1, 2}, rng.Intn(80), dom)
		ut := randomTable(rng, []int{0, 1, 3}, rng.Intn(80), dom)
		tc := NewColumnar(tt, []int{0, 1, 2})
		uc := NewColumnar(ut, []int{0, 1, 3})
		out := MergeSemijoin(tc, uc)
		want := tt.Semijoin(ut)
		if !out.Table().Equal(want) {
			t.Fatalf("trial %d: aligned merge %d rows, hash %d rows", trial, out.Rows(), want.Rows())
		}
	}
}

func TestMergeSemijoinProbeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		dom := 2 + rng.Intn(6)
		tt := randomTable(rng, []int{0, 1, 2}, rng.Intn(80), dom)
		ut := randomTable(rng, []int{1, 3}, rng.Intn(80), dom)
		// t's column order buries the shared variable 1 mid-order, so only
		// the probe kernel applies.
		tc := NewColumnar(tt, []int{2, 1, 0})
		uc := NewColumnar(ut, []int{1, 3})
		out := MergeSemijoin(tc, uc)
		want := tt.Semijoin(ut)
		if !out.Table().Equal(want) {
			t.Fatalf("trial %d: probe merge %d rows, hash %d rows", trial, out.Rows(), want.Rows())
		}
	}
}

func TestMergeSemijoinEdges(t *testing.T) {
	tt := tableOf([]int{0, 1}, []Value{1, 2}, []Value{3, 4})
	tc := NewColumnar(tt, []int{0, 1})
	// Shared variables not a prefix of u: u is navigated through its
	// re-sorted projection.
	u := NewColumnar(tableOf([]int{2, 0}, []Value{7, 1}), []int{2, 0})
	if out := MergeSemijoin(tc, u); !out.Table().Equal(tableOf([]int{0, 1}, []Value{1, 2})) {
		t.Fatalf("non-prefix u side kept %d rows, want the one with 0=1", out.Rows())
	}
	// No shared variables: u non-empty keeps everything, u empty keeps nothing.
	if full := MergeSemijoin(tc, NewColumnar(tableOf([]int{5}, []Value{9}), []int{5})); full != tc {
		t.Fatal("disjoint non-empty u must return t itself")
	}
	if none := MergeSemijoin(tc, NewColumnar(NewTable([]int{5}), []int{5})); none.Rows() != 0 {
		t.Fatal("disjoint empty u must empty t")
	}
	// Empty t short-circuits; empty u with shared vars empties t.
	et := NewColumnar(NewTable([]int{0, 1}), []int{0, 1})
	if out := MergeSemijoin(et, tc); out.Rows() != 0 {
		t.Fatal("empty t must stay empty")
	}
	eu := NewColumnar(NewTable([]int{0, 9}), []int{0, 9})
	if out := MergeSemijoin(tc, eu); out.Rows() != 0 {
		t.Fatal("empty u with shared vars must empty t")
	}
	// Unfiltered aligned merge returns t itself (no copy).
	if out := MergeSemijoin(tc, tc); out != tc {
		t.Fatal("self-semijoin must return t unchanged")
	}
}

// Shared variables at arbitrary column positions on both sides — one and
// two of them — must agree with the hash semijoin: the case the full
// reducer's down pass meets on every parent with more than one child.
func TestMergeSemijoinAnyPositionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 80; trial++ {
		dom := 2 + rng.Intn(6)
		tt := randomTable(rng, []int{0, 1, 2}, rng.Intn(80), dom)
		uvars, uorder := []int{3, 1}, []int{3, 1}
		if trial%2 == 1 {
			uvars, uorder = []int{4, 2, 3, 0}, []int{3, 2, 4, 0}
		}
		ut := randomTable(rng, uvars, rng.Intn(80), dom)
		torder := [][]int{{0, 1, 2}, {1, 0, 2}, {2, 0, 1}}[trial%3]
		out := MergeSemijoin(NewColumnar(tt, torder), NewColumnar(ut, uorder))
		if want := tt.Semijoin(ut); !out.Table().Equal(want) {
			t.Fatalf("trial %d: columnar semijoin %d rows, hash %d rows", trial, out.Rows(), want.Rows())
		}
	}
}

// PrefixRun must bracket exactly the rows carrying the key prefix, and
// Prefix/Distinct must agree with the hash projection.
func TestPrefixRunAndPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		tab := randomTable(rng, []int{0, 1, 2}, rng.Intn(60), 2+rng.Intn(5))
		c := NewColumnar(tab, []int{1, 0, 2})
		for k := 0; k <= 3; k++ {
			if got, want := c.Prefix(k).Table(), tab.Project(c.Vars[:k]); !got.Equal(want) {
				t.Fatalf("trial %d: Prefix(%d) has %d rows, want %d", trial, k, got.Rows(), want.Rows())
			}
		}
		for a := Value(0); a < 7; a++ {
			for b := Value(0); b < 7; b++ {
				lo, hi := c.PrefixRun([]Value{a, b})
				n := 0
				for r := 0; r < c.Rows(); r++ {
					if match := c.Value(0, r) == a && c.Value(1, r) == b; match {
						n++
						if r < lo || r >= hi {
							t.Fatalf("trial %d: row %d matches (%d,%d) outside run [%d,%d)", trial, r, a, b, lo, hi)
						}
					}
				}
				if n != hi-lo {
					t.Fatalf("trial %d: run [%d,%d) for (%d,%d), %d rows match", trial, lo, hi, a, b, n)
				}
			}
		}
		if lo, hi := c.PrefixRun(nil); lo != 0 || hi != c.Rows() {
			t.Fatalf("empty key run [%d,%d), want all %d rows", lo, hi, c.Rows())
		}
	}
}

func BenchmarkTrieIterSeek(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 1 << 16
	tab := NewTable([]int{0, 1})
	for i := 0; i < n; i++ {
		tab.addRow([]Value{Value(rng.Intn(n / 4)), Value(rng.Intn(64))})
	}
	tab.dedup()
	c := NewColumnar(tab, []int{0, 1})
	targets := make([]Value, 4096)
	for i := range targets {
		targets[i] = Value(rng.Intn(n / 4))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := NewTrieIter(c)
		it.Open()
		for _, v := range targets {
			it.Seek(v)
			if it.AtEnd() {
				break
			}
		}
	}
}

// gallopCodesBranchy is the pre-optimisation gallop (branchy binary search),
// kept here as the benchmark baseline for BenchmarkGallop.
func gallopCodesBranchy(col []int32, from, hi int, target int32) int {
	if from >= hi || col[from] >= target {
		return from
	}
	lo, step := from, 1
	for lo+step < hi && col[lo+step] < target {
		lo += step
		step <<= 1
	}
	r := hi
	if lo+step < hi {
		r = lo + step
	}
	lo++
	for lo < r {
		mid := int(uint(lo+r) >> 1)
		if col[mid] < target {
			lo = mid + 1
		} else {
			r = mid
		}
	}
	return lo
}

func TestGallopCodesMatchesBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		col := make([]int32, n)
		v := int32(0)
		for i := range col {
			v += int32(rng.Intn(3))
			col[i] = v
		}
		from := rng.Intn(n)
		target := int32(rng.Intn(int(v) + 2))
		got := gallopCodes(col, from, n, target)
		want := gallopCodesBranchy(col, from, n, target)
		if got != want {
			t.Fatalf("gallopCodes(from=%d, target=%d) = %d, branchy = %d", from, target, got, want)
		}
	}
}

func BenchmarkGallop(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	n := 1 << 18
	col := make([]int32, n)
	v := int32(0)
	for i := range col {
		v += int32(rng.Intn(3))
		col[i] = v
	}
	targets := make([]int32, 1024)
	for i := range targets {
		targets[i] = int32(rng.Intn(int(v)))
	}
	b.Run("branchfree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range targets {
				gallopCodes(col, 0, n, t)
			}
		}
	})
	b.Run("branchy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range targets {
				gallopCodesBranchy(col, 0, n, t)
			}
		}
	})
}

func BenchmarkMergeSemijoin(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tt := randomTable(rng, []int{0, 1}, 50000, 4000)
	ut := randomTable(rng, []int{0, 2}, 5000, 4000)
	tc := NewColumnar(tt, []int{0, 1})
	uc := NewColumnar(ut, []int{0, 2})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MergeSemijoin(tc, uc)
		}
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tt.Semijoin(ut)
		}
	})
}

func BenchmarkLeapfrogTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n, dom := 3000, 300
	r := randomTable(rng, []int{0, 1}, n, dom)
	s := randomTable(rng, []int{1, 2}, n, dom)
	u := randomTable(rng, []int{0, 2}, n, dom)
	tables := []*Table{r, s, u}
	order := []int{0, 1, 2}
	b.Run("leapfrog", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LeapfrogJoin(tables, order, 3, 0)
		}
	})
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chainJoinProject(tables, order)
		}
	})
}
