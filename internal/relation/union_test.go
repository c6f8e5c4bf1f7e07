package relation

import "testing"

func tableOf(vars []int, rows ...[]Value) *Table {
	t := NewTable(vars)
	for _, r := range rows {
		t.addRow(r)
	}
	return t
}

func TestConcatAndUnion(t *testing.T) {
	a := tableOf([]int{0, 1}, []Value{1, 2}, []Value{3, 4})
	b := tableOf([]int{0, 1}, []Value{3, 4}, []Value{5, 6})
	c := tableOf([]int{0, 1})

	cat := Concat(a, c, b)
	if cat.Rows() != 4 {
		t.Fatalf("Concat keeps duplicates: got %d rows, want 4", cat.Rows())
	}
	if got := cat.Row(0); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Concat must preserve table order, row 0 = %v", got)
	}
	// The set union of gathered shard tables is the distinct encoding of
	// their concatenation.
	if u := NewColumnar(cat, cat.Vars).Distinct(); u.Rows() != 3 {
		t.Fatalf("distinct encoding of the concatenation: got %d rows, want 3", u.Rows())
	}
	if Concat().Rows() != 0 || len(Concat().Vars) != 0 {
		t.Fatalf("empty Concat should be the empty nullary table")
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Concat over mismatched vars must panic")
		}
	}()
	Concat(a, tableOf([]int{1, 0}, []Value{1, 2}))
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
		u := Concat(a, a)
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
		Concat(a, a).dedup()
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
