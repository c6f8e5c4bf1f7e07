package relation

import (
	"slices"
	"testing"
)

func tableOf(vars []int, rows ...[]Value) *Table {
	t := NewTable(vars)
	for _, r := range rows {
		t.addRow(r)
	}
	return t
}

func TestConcatAndUnion(t *testing.T) {
	enc := func(tab *Table) *Columnar { return NewColumnar(tab, tab.Vars) }
	a := tableOf([]int{0, 1}, []Value{3, 4}, []Value{1, 2})
	b := tableOf([]int{0, 1}, []Value{5, 6}, []Value{3, 4})
	c := tableOf([]int{0, 1})

	// The set union of gathered shard tables: concatenated, sorted, and the
	// row two parts share kept once.
	u := Union(enc(a), enc(c), enc(b))
	if want := tableOf([]int{0, 1}, []Value{1, 2}, []Value{3, 4}, []Value{5, 6}); !slices.Equal(u.Table().data, want.data) {
		t.Fatalf("Union = %v, want the three distinct rows in order", u.Table().data)
	}
	if Union().Rows() != 0 || len(Union().Vars) != 0 {
		t.Fatalf("empty Union should be the empty nullary table")
	}
	// Boolean parts: true if any part is.
	tt, ff := NewColumnar(TrueTable(), nil), NewColumnar(NewTable(nil), nil)
	if Union(ff, tt, tt).Rows() != 1 || Union(ff, ff).Rows() != 0 {
		t.Fatalf("Union of Boolean tables must be their disjunction")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Union over mismatched vars must panic")
		}
	}()
	Union(enc(a), enc(tableOf([]int{1, 0}, []Value{1, 2})))
}

// doubled returns a table holding every row of a twice.
func doubled(a *Table) *Table {
	u := a.Clone()
	u.data = append(u.data, a.data...)
	u.rows += a.rows
	return u
}

// The dedup key buffer is hoisted out of the row loop: deduplicating a table
// that is all duplicates must cost far fewer allocations than one per row
// (only first-seen rows allocate a map key).
func TestUnionDedupAllocs(t *testing.T) {
	const rows = 1000
	a := NewTable([]int{0, 1})
	for i := 0; i < rows; i++ {
		a.addRow([]Value{Value(i), Value(i + 1)})
	}
	allocs := testing.AllocsPerRun(10, func() {
		u := doubled(a)
		u.dedup()
		if u.Rows() != rows {
			t.Fatalf("dedup lost rows: %d", u.Rows())
		}
	})
	// 2×rows worth of input with rows distinct keys: budget ≈ one key alloc
	// per distinct row plus map/slice growth. Before the hoist this was
	// ≥ 2 allocations per input row (~4000).
	if allocs > rows*1.5 {
		t.Fatalf("dedup allocates %v times for %d distinct rows — key buffer not hoisted", allocs, rows)
	}
}

func BenchmarkUnionDedup(b *testing.B) {
	const rows = 5000
	a := NewTable([]int{0, 1})
	for i := 0; i < rows; i++ {
		a.addRow([]Value{Value(i), Value(i + 1)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doubled(a).dedup()
	}
}

func TestCloneSchemaSharesDictionary(t *testing.T) {
	db := NewDatabase()
	if err := db.AddFact("r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	cl := db.CloneSchema()
	if cl.Relation("r") == nil || cl.Relation("r").Arity != 2 {
		t.Fatalf("schema not cloned")
	}
	if cl.Relation("r").Rows() != 0 {
		t.Fatalf("clone must start empty")
	}
	va, _ := db.Lookup("a")
	vb, ok := cl.Lookup("a")
	if !ok || va != vb {
		t.Fatalf("dictionary not shared: %d vs %d", va, vb)
	}
}

func TestRelationHas(t *testing.T) {
	db := NewDatabase()
	db.AddFact("r", "a", "b")
	r := db.Relation("r")
	a, _ := db.Lookup("a")
	b, _ := db.Lookup("b")
	if !r.Has(a, b) {
		t.Fatalf("Has misses a present tuple")
	}
	if r.Has(b, a) {
		t.Fatalf("Has found an absent tuple")
	}
	if r.Has(a) {
		t.Fatalf("Has must reject arity mismatch")
	}
}
