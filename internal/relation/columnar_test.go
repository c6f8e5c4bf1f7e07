package relation

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

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
		if c.Rows() != tab.Rows() || len(c.Vars) != 3 {
			t.Fatalf("trial %d: shape %dx%d, want %dx3", trial, c.Rows(), len(c.Vars), tab.Rows())
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
		}
	}
	// Boolean projection: zero columns, non-empty input → the single empty row.
	tab := tableOf([]int{0}, []Value{1}, []Value{2})
	if got := NewColumnar(tab, []int{0}).sortedProjection(nil).Table(); got.Rows() != 1 || len(got.Vars) != 0 {
		t.Fatalf("projection onto no column of a non-empty table = %d rows", got.Rows())
	}
	empty := NewTable([]int{0})
	if got := NewColumnar(empty, []int{0}).sortedProjection(nil).Table(); got.Rows() != 0 {
		t.Fatal("projection onto no column of an empty table must be empty")
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

// leapfrogTables is LeapfrogJoinColumnar over row-major tables: each is
// encoded over its subsequence of order, and the result comes back
// row-major.
func leapfrogTables(tables []*Table, order []int, nOut, capHint int) *Table {
	cols := make([]*Columnar, len(tables))
	for i, t := range tables {
		cols[i] = NewColumnar(t, SubOrder(order, t.Vars))
	}
	out, _ := LeapfrogJoinColumnar(context.Background(), cols, order, nOut, capHint)
	return out.Table()
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
			got := leapfrogTables([]*Table{r, s, u}, order, nOut, 0)
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
		got := leapfrogTables(tables, order, nOut, 7)
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
	if got := leapfrogTables([]*Table{r, s}, []int{0, 1, 2}, 3, 100); got.Rows() != 0 {
		t.Fatal("join with an empty table must be empty")
	}
	// All-Boolean join: no variables, non-empty tables → true.
	if got := leapfrogTables([]*Table{TrueTable(), TrueTable()}, nil, 0, 0); got.Rows() != 1 {
		t.Fatal("Boolean true join lost its row")
	}
	// Single table: leapfrog degenerates to sort + projection.
	tab := tableOf([]int{0, 1}, []Value{2, 1}, []Value{1, 1}, []Value{2, 9})
	got := leapfrogTables([]*Table{tab}, []int{1, 0}, 1, 0)
	if want := tab.Project([]int{1}); !got.Equal(want) {
		t.Fatal("single-table leapfrog projection wrong")
	}
	// Shared Columnars across concurrent joins (the encoding cache's usage
	// pattern).
	big := randomTable(rand.New(rand.NewSource(1)), []int{0, 1}, 200, 10)
	c := NewColumnar(big, []int{0, 1})
	done := make(chan *Table, 8)
	for i := 0; i < 8; i++ {
		go func() {
			out, _ := LeapfrogJoinColumnar(context.Background(), []*Columnar{c, c}, []int{0, 1}, 2, 0)
			done <- out.Table()
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

// pollCounter is a context that counts how often it is polled, cancelled
// from the start when err is set.
type pollCounter struct {
	context.Context
	err   error
	polls int
}

func (p *pollCounter) Err() error {
	p.polls++
	return p.err
}

// The join polls its context every 4096 keys visited: a product of 90 000
// rows under a context cancelled beforehand stops at the first poll — before
// a second interval's worth of rows exists — and a live one keeps being
// polled to the end.
func TestLeapfrogPollsContext(t *testing.T) {
	side := func(v int) *Columnar {
		tab := NewTable([]int{v})
		for i := 0; i < 300; i++ {
			tab.addRow([]Value{Value(i)})
		}
		return NewColumnar(tab, []int{v})
	}
	cols := []*Columnar{side(0), side(1)}
	dead := &pollCounter{Context: context.Background(), err: context.Canceled}
	out, err := LeapfrogJoinColumnar(dead, cols, []int{0, 1}, 2, 0)
	if out != nil || err != context.Canceled || dead.polls != 1 {
		t.Fatalf("cancelled join: table %v, err %v after %d polls; want no table, Canceled at the first poll", out != nil, err, dead.polls)
	}
	live := &pollCounter{Context: context.Background()}
	out, err = LeapfrogJoinColumnar(live, cols, []int{0, 1}, 2, 0)
	if err != nil || out.Rows() != 90000 || live.polls < 90000/4096 {
		t.Fatalf("live join: %d rows, err %v, %d polls; want 90000 rows and a poll every 4096 keys", out.Rows(), err, live.polls)
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

// The leapfrog output is emitted straight into columns and handed on as a
// Columnar without a sort: it must be exactly what the sorting constructor
// builds from the same rows, column for column.
func TestLeapfrogOutputIsSortedColumnar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		dom := 2 + rng.Intn(8)
		r := NewColumnar(randomTable(rng, []int{2, 0}, rng.Intn(60), dom), []int{2, 0})
		s := NewColumnar(randomTable(rng, []int{0, 5}, rng.Intn(60), dom), []int{0, 5})
		for nOut := 0; nOut <= 3; nOut++ {
			c, err := LeapfrogJoinColumnar(context.Background(), []*Columnar{r, s}, []int{2, 0, 5}, nOut, 0)
			if err != nil {
				t.Fatal(err)
			}
			tab := c.Table()
			if !slices.Equal(tab.Vars, []int{2, 0, 5}[:nOut]) || tab.Rows() != c.Rows() {
				t.Fatalf("trial %d nOut=%d: Table() round trip is %v × %d rows, columnar has %d", trial, nOut, tab.Vars, tab.Rows(), c.Rows())
			}
			want := NewColumnar(tab, tab.Vars)
			if want.Rows() != c.Rows() || want.Distinct() != want {
				t.Fatalf("trial %d nOut=%d: leapfrog output is not distinct", trial, nOut)
			}
			for i := range c.cols {
				if !slices.Equal(c.cols[i], want.cols[i]) {
					t.Fatalf("trial %d nOut=%d: column %d differs from the sorting constructor's", trial, nOut, i)
				}
			}
		}
	}
}

// PrefixRun returns the row range [lo, hi) whose leading len(key) columns
// hold exactly key, as a trie descent: the top level is one read of the
// run offsets where the leading column has them, every other level a
// galloped narrowing; the range is empty when no row matches. It is the
// reference a Probe, the same descent keyed by a parent row, is held to.
func (c *Columnar) PrefixRun(key []Value) (lo, hi int) {
	hi = c.rows
	for j, v := range key {
		if j == 0 && c.firstRuns() != nil {
			runs := c.runs0
			k := int64(v) - int64(c.min0)
			if k < 0 || k >= int64(len(runs)-1) {
				return 0, 0
			}
			lo, hi = int(runs[k]), int(runs[k+1])
		} else {
			lo = gallopCodes(c.cols[j], lo, hi, v)
			hi = gallopPast(c.cols[j], lo, hi, v)
		}
		if lo == hi {
			return 0, 0
		}
	}
	return lo, hi
}

// PrefixRun must bracket exactly the rows carrying the key prefix, and the
// distinct projection onto a column prefix must agree with the hash one.
func TestPrefixRunAndPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		tab := randomTable(rng, []int{0, 1, 2}, rng.Intn(60), 2+rng.Intn(5))
		c := NewColumnar(tab, []int{1, 0, 2})
		for k := 0; k <= 3; k++ {
			if got, want := c.sortedProjection([]int{0, 1, 2}[:k]).Table(), tab.Project(c.Vars[:k]); !got.Equal(want) {
				t.Fatalf("trial %d: projection onto the first %d columns has %d rows, want %d", trial, k, got.Rows(), want.Rows())
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

// regularTable is a degree-regular binary table: rows/dom random
// permutations of the domain, so every value occurs that often per column —
// the shape of the ledger's exec_cyclic and exec_enum relations.
func regularTable(rng *rand.Rand, vars []int, rows, dom int) *Table {
	t := NewTable(vars)
	for ; rows > 0; rows -= dom {
		src, dst := rng.Perm(dom), rng.Perm(dom)
		for i := 0; i < min(rows, dom); i++ {
			t.addRow([]Value{Value(src[i]), Value(dst[i])})
		}
	}
	t.dedup()
	return t
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
			leapfrogTables(tables, order, 3, 0)
		}
	})
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			chainJoinProject(tables, order)
		}
	})
	// The exec_cyclic shape, encodings prebuilt as the evaluator's cache
	// holds them: 3 × 50 000 rows over 25 000 values, a handful of
	// triangles, so the time is all seeks.
	b.Run("regular50000x25000", func(b *testing.B) {
		var cols []*Columnar
		for _, vars := range [][]int{{0, 1}, {1, 2}, {0, 2}} {
			cols = append(cols, NewColumnar(regularTable(rng, vars, 50000, 25000), vars))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LeapfrogJoinColumnar(context.Background(), cols, order, 3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBindColumnar is an encoding-cache miss on a 50 000 × 2 relation:
// straight into sorted columns, against the row-major Bind (row-index
// dedup) followed by NewColumnar it replaced.
func BenchmarkBindColumnar(b *testing.B) {
	tab := regularTable(rand.New(rand.NewSource(18)), []int{0, 1}, 50000, 25000)
	rel := &Relation{Name: "r", Arity: 2}
	for r := 0; r < tab.Rows(); r++ {
		rel.Add(tab.Row(r)...)
	}
	args, order := []Arg{BindVar(0), BindVar(1)}, []int{1, 0}
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BindColumnar(rel, args, order); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bind+encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t, err := Bind(rel, args)
			if err != nil {
				b.Fatal(err)
			}
			NewColumnar(t, order)
		}
	})
}
