package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file holds every columnar operator to its row-major oracle across the
// value regimes the per-column dictionaries used to hide: a Columnar now
// navigates interned Values directly, so whether a column's value range is
// dense (counting passes, the top-level offsets table, the projection
// bitmap) or sparse (comparison sort, galloped top level) selects real code
// paths, and each must give the same answers.

// A regime draws the values of one variable: the same variable draws from
// the same pool in every table, so joins find matches.
type regime struct {
	name string
	pool func(v int) []Value
}

func span(base Value, n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = base + Value(i)
	}
	return out
}

// sparsePool spreads a handful of values over the whole int32 range,
// negatives and the maximum included: no column over it passes denseRange.
var sparsePool = []Value{math.MinInt32, -1 << 30, -7, 0, 3, 1 << 20, 1<<20 + 1, 1 << 29, math.MaxInt32 - 1, math.MaxInt32}

var regimes = []regime{
	{"dense", func(int) []Value { return span(0, 6) }},
	{"offset", func(int) []Value { return span(1<<20, 6) }},
	{"sparse", func(int) []Value { return sparsePool }},
	{"mixed", func(v int) []Value {
		return [][]Value{span(0, 6), span(1<<20, 6), sparsePool}[v%3]
	}},
}

// table draws up to n distinct rows over vars.
func (g regime) table(rng *rand.Rand, vars []int, n int) *Table {
	t := NewTable(vars)
	row := make([]Value, len(vars))
	for i := 0; i < n; i++ {
		for j, v := range vars {
			pool := g.pool(v)
			row[j] = pool[rng.Intn(len(pool))]
		}
		t.addRow(row)
	}
	t.dedup()
	return t
}

// probes returns values to seek or look up in a column of variable v: every
// pool value, its neighbours (mostly absent), and both ends of the domain.
func (g regime) probes(v int) []Value {
	out := []Value{math.MinInt32, math.MaxInt32}
	for _, x := range g.pool(v) {
		out = append(out, x)
		if x > math.MinInt32 {
			out = append(out, x-1)
		}
		if x < math.MaxInt32 {
			out = append(out, x+1)
		}
	}
	return out
}

func forEachRegime(t *testing.T, seed int64, trials int, f func(t *testing.T, g regime, rng *rand.Rand)) {
	for _, g := range regimes {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < trials; trial++ {
				f(t, g, rng)
			}
		})
	}
}

func shuffled(rng *rand.Rand, vars []int) []int {
	out := slices.Clone(vars)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// strictlySorted reports whether c's rows ascend strictly in lexicographic
// order — sorted and distinct.
func strictlySorted(c *Columnar) bool {
	for r := 1; r < c.rows; r++ {
		less := false
		for _, col := range c.cols {
			if col[r-1] != col[r] {
				less = col[r-1] < col[r]
				break
			}
		}
		if !less {
			return false
		}
	}
	return true
}

// sameColumns reports whether a and b are the same encoding, value for value.
func sameColumns(a, b *Columnar) bool {
	if !slices.Equal(a.Vars, b.Vars) || a.rows != b.rows {
		return false
	}
	for i := range a.cols {
		if !slices.Equal(a.cols[i], b.cols[i]) {
			return false
		}
	}
	return true
}

// The regimes must select the paths they are named for: a sparse column
// takes neither the offsets table nor a counting pass, a dense one both.
func TestRegimesSelectTheirPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range regimes[:3] {
		c := NewColumnar(g.table(rng, []int{0, 1}, 40), []int{0, 1})
		_, _, dense := denseRange(c.cols[0])
		if want := g.name != "sparse"; dense != want || (c.firstRuns() != nil) != want {
			t.Fatalf("%s: denseRange = %v, offsets table present = %v, want both %v", g.name, dense, c.firstRuns() != nil, want)
		}
	}
	// The boundary of the one threshold: a range of 4·rows + 1024 values is
	// dense, one more is not.
	col := []Value{10, 10 + 4*2 + 1024 - 1}
	if _, span, ok := denseRange(col); !ok || span != 4*2+1024 {
		t.Fatalf("range of 4·rows+1024 must be dense (span %d, ok %v)", span, ok)
	}
	col[1]++
	if _, _, ok := denseRange(col); ok {
		t.Fatal("range of 4·rows+1025 must be sparse")
	}
}

func TestRegimesRoundTripAndSort(t *testing.T) {
	forEachRegime(t, 31, 25, func(t *testing.T, g regime, rng *rand.Rand) {
		tab := g.table(rng, []int{0, 1, 2}, rng.Intn(60))
		order := shuffled(rng, tab.Vars)
		c := NewColumnar(tab, order)
		if !slices.Equal(c.Vars, order) || !c.Table().Equal(tab) {
			t.Fatalf("NewColumnar(%v) round trip lost rows", order)
		}
		if !strictlySorted(c) {
			t.Fatalf("NewColumnar(%v) rows not strictly ascending", order)
		}
		// Reorder permutes columns without a Table in between.
		again := shuffled(rng, order)
		if got := c.Reorder(again); !sameColumns(got, NewColumnar(tab, again)) {
			t.Fatalf("Reorder(%v) of order %v differs from encoding afresh", again, order)
		}
	})
}

// scanIter is the linear-scan model of TrieIter: the same cursor state,
// every movement found by stepping row by row.
type scanIter struct {
	c           *Columnar
	depth       int
	lo, hi, pos []int
}

func (s *scanIter) open() {
	d := s.depth + 1
	lo, hi := 0, s.c.rows
	if d > 0 {
		lo = s.pos[d-1]
		for hi = lo; hi < s.hi[d-1] && s.c.cols[d-1][hi] == s.c.cols[d-1][lo]; hi++ {
		}
	}
	s.lo[d], s.hi[d], s.pos[d], s.depth = lo, hi, lo, d
}

func (s *scanIter) seek(v Value) {
	d := s.depth
	for s.pos[d] < s.hi[d] && s.c.cols[d][s.pos[d]] < v {
		s.pos[d]++
	}
}

func (s *scanIter) next() {
	d := s.depth
	cur := s.c.cols[d][s.pos[d]]
	for s.pos[d] < s.hi[d] && s.c.cols[d][s.pos[d]] == cur {
		s.pos[d]++
	}
}

func TestRegimesTrieIterAgainstScan(t *testing.T) {
	forEachRegime(t, 32, 30, func(t *testing.T, g regime, rng *rand.Rand) {
		vars := []int{0, 1, 2}
		c := NewColumnar(g.table(rng, vars, 1+rng.Intn(80)), vars)
		it := NewTrieIter(c)
		ref := &scanIter{c: c, depth: -1, lo: make([]int, 3), hi: make([]int, 3), pos: make([]int, 3)}
		var trail []string
		check := func(op string) {
			trail = append(trail, op)
			if it.Depth() != ref.depth {
				t.Fatalf("%v: depth %d, scan model %d", trail, it.Depth(), ref.depth)
			}
			if ref.depth < 0 {
				return
			}
			end := ref.pos[ref.depth] >= ref.hi[ref.depth]
			if it.AtEnd() != end || (!end && it.Key() != c.cols[ref.depth][ref.pos[ref.depth]]) {
				t.Fatalf("%v: iterator and scan model disagree (AtEnd %v vs %v)", trail, it.AtEnd(), end)
			}
		}
		it.Open()
		ref.open()
		check("open")
		for step := 0; step < 60; step++ {
			d := ref.depth
			atEnd := ref.pos[d] >= ref.hi[d]
			switch op := rng.Intn(6); {
			case op == 0 && !atEnd && d < 2:
				it.Open()
				ref.open()
				check("open")
			case op == 1 && d > 0:
				it.Up()
				ref.depth--
				check("up")
			case op == 2 && !atEnd:
				it.Next()
				ref.next()
				check("next")
			case !atEnd:
				// Any target: one below the current key must not move the
				// iterator, one past the level's last key must end it.
				ps := g.probes(vars[d])
				v := ps[rng.Intn(len(ps))]
				it.Seek(v)
				ref.seek(v)
				check(fmt.Sprintf("seek(%d)@%d", v, d))
			default: // exhausted level: climb, or start over at the root
				if d > 0 {
					it.Up()
					ref.depth--
					check("up")
				} else {
					it = NewTrieIter(c)
					ref.depth = -1
					it.Open()
					ref.open()
					check("reopen")
				}
			}
		}
	})
}

func TestRegimesLeapfrogAgainstChain(t *testing.T) {
	forEachRegime(t, 33, 30, func(t *testing.T, g regime, rng *rand.Rand) {
		n := 1 + rng.Intn(40)
		tables := []*Table{g.table(rng, []int{0, 1}, n), g.table(rng, []int{1, 2}, n), g.table(rng, []int{0, 2}, n)}
		if rng.Intn(2) == 0 {
			tables = append(tables, g.table(rng, []int{2, 3, 0}, n))
		}
		order := []int{0, 1, 2}
		if len(tables) == 4 {
			order = append(order, 3)
		}
		order = shuffled(rng, order)
		for nOut := 0; nOut <= len(order); nOut++ {
			want := chainJoinProject(tables, order[:nOut])
			if got := leapfrogTables(tables, order, nOut, 0); !got.Equal(want) {
				t.Fatalf("order %v nOut=%d: leapfrog %d rows, chain %d rows", order, nOut, got.Rows(), want.Rows())
			}
		}
	})
}

func TestRegimesPrefixRunAndProjection(t *testing.T) {
	forEachRegime(t, 35, 20, func(t *testing.T, g regime, rng *rand.Rand) {
		order := shuffled(rng, []int{0, 1, 2})
		c := NewColumnar(g.table(rng, []int{0, 1, 2}, rng.Intn(60)), order)
		for _, cols := range [][]int{{}, {0}, {2}, {0, 1}, {2, 0}, {1, 2, 0}} {
			var vars []int
			for _, j := range cols {
				vars = append(vars, order[j])
			}
			got := c.sortedProjection(cols)
			if want := c.Table().Project(vars); !got.Table().Equal(want) || !strictlySorted(got) {
				t.Fatalf("sortedProjection(%v): %d rows, the hash projection has %d", cols, got.Rows(), want.Rows())
			}
		}
		if lo, hi := c.PrefixRun(nil); lo != 0 || hi != c.Rows() {
			t.Fatalf("empty key run [%d,%d), want all %d rows", lo, hi, c.Rows())
		}
		for _, a := range g.probes(order[0]) {
			for _, key := range [][]Value{{a}, {a, g.probes(order[1])[rng.Intn(4)]}, {a, g.pool(order[1])[0], g.pool(order[2])[0]}} {
				lo, hi := c.PrefixRun(key)
				n := 0
				for r := 0; r < c.Rows(); r++ {
					match := true
					for j, v := range key {
						match = match && c.Value(j, r) == v
					}
					if match {
						n++
						if r < lo || r >= hi {
							t.Fatalf("row %d matches %v outside run [%d,%d)", r, key, lo, hi)
						}
					}
				}
				if n != hi-lo {
					t.Fatalf("run [%d,%d) for %v, %d rows match", lo, hi, key, n)
				}
			}
		}
	})
}

// A Probe is PrefixRun keyed by a parent row: for every key width, parent
// rows drawn from the probe values (absent, below and above the column's
// range included) and visited in random order, At must report a lookup
// exactly when the key differs from the last one looked up, and Run must
// bracket PrefixRun's rows.
func TestRegimesProbeAgainstPrefixRun(t *testing.T) {
	forEachRegime(t, 37, 20, func(t *testing.T, g regime, rng *rand.Rand) {
		c := NewColumnar(g.table(rng, []int{0, 1, 2}, rng.Intn(60)), shuffled(rng, []int{0, 1, 2}))
		for k := 0; k <= 3; k++ {
			pvars := append(slices.Clone(c.Vars[:k]), 9)
			pt := NewTable(pvars)
			row := make([]Value, len(pvars))
			for range 30 {
				for j, v := range pvars {
					row[j] = Value(rng.Intn(3))
					if v != 9 {
						probes := g.probes(v)
						row[j] = probes[rng.Intn(len(probes))]
					}
				}
				pt.addRow(row)
			}
			pt.dedup()
			p := NewColumnar(pt, shuffled(rng, pvars))
			pcol := make([]int, k)
			for j := range pcol {
				pcol[j] = slices.Index(p.Vars, c.Vars[j])
			}
			pr := c.Probe(p, pcol)
			var last []Value
			for _, r := range rng.Perm(p.Rows()) {
				key := make([]Value, k)
				for j, pc := range pcol {
					key[j] = p.Value(pc, r)
				}
				if fresh := pr.At(r); fresh != (last == nil || !slices.Equal(key, last)) {
					t.Fatalf("key width %d: At(%d) = %v after key %v, key %v", k, r, fresh, last, key)
				}
				last = key
				lo, hi := pr.Run()
				wlo, whi := c.PrefixRun(key)
				if hi-lo != whi-wlo || (lo < hi && lo != wlo) {
					t.Fatalf("key width %d, key %v: probe run [%d,%d), PrefixRun [%d,%d)", k, key, lo, hi, wlo, whi)
				}
			}
		}
	})
}

func TestRegimesBindColumnarAgainstBind(t *testing.T) {
	forEachRegime(t, 36, 40, func(t *testing.T, g regime, rng *rand.Rand) {
		// A 4-ary relation whose columns draw from variables 0..3's pools.
		src := g.table(rng, []int{0, 1, 2, 3}, rng.Intn(80))
		rel := &Relation{Name: "r", Arity: 4}
		for r := 0; r < src.Rows(); r++ {
			rel.Add(src.Row(r)...)
		}
		// Random atom: variables (repeats likely), a constant the relation
		// may hold, or the unknown constant −1.
		args := make([]Arg, 4)
		for j := range args {
			switch rng.Intn(5) {
			case 0:
				pool := g.pool(j)
				args[j] = BindConst(pool[rng.Intn(len(pool))])
			case 1:
				if rng.Intn(4) == 0 {
					args[j] = BindConst(-1)
					break
				}
				fallthrough
			default:
				args[j] = BindVar(rng.Intn(3))
			}
		}
		want, err := Bind(rel, args)
		if err != nil {
			t.Fatal(err)
		}
		order := shuffled(rng, want.Vars)
		got, err := BindColumnar(rel, args, order)
		if err != nil {
			t.Fatal(err)
		}
		if !sameColumns(got, NewColumnar(want, order)) {
			t.Fatalf("BindColumnar(%v, order %v): %d rows, NewColumnar(Bind) has %d", args, order, got.Rows(), want.Rows())
		}
		// A narrower order is the distinct projection.
		k := rng.Intn(len(order) + 1)
		got, err = BindColumnar(rel, args, order[:k])
		if err != nil {
			t.Fatal(err)
		}
		if proj := want.Project(order[:k]); !sameColumns(got, NewColumnar(proj, order[:k])) {
			t.Fatalf("BindColumnar(%v, order %v): %d rows, the projection has %d", args, order[:k], got.Rows(), proj.Rows())
		}
	})
	if _, err := BindColumnar(&Relation{Name: "r", Arity: 2}, []Arg{BindVar(0)}, []int{0}); err == nil {
		t.Fatal("BindColumnar must reject an arity mismatch")
	}
}
