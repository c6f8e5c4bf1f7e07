package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestInternAndFacts(t *testing.T) {
	db := NewDatabase()
	a := db.Intern("alice")
	if db.Intern("alice") != a {
		t.Fatalf("Intern not idempotent")
	}
	if db.ValueName(a) != "alice" {
		t.Fatalf("ValueName wrong")
	}
	if err := db.AddFact("parent", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFact("parent", "alice", "bob"); err != nil {
		t.Fatal(err) // duplicate fact ok, set semantics
	}
	if db.Relation("parent").Rows() != 1 {
		t.Fatalf("set semantics violated")
	}
	if err := db.AddFact("parent", "justone"); err == nil {
		t.Fatalf("arity mismatch not detected")
	}
	if _, ok := db.Lookup("alice"); !ok {
		t.Fatalf("Lookup failed")
	}
	if _, ok := db.Lookup("nobody"); ok {
		t.Fatalf("Lookup found a ghost")
	}
}

func TestParseFacts(t *testing.T) {
	db := NewDatabase()
	err := db.ParseFacts(`
% university database
enrolled(ann, cs101, jan).
teaches(bob, cs101, t1). # comment
parent(bob, ann)
flag().
`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("enrolled").Rows() != 1 || db.Relation("flag").Rows() != 1 {
		t.Fatalf("facts not loaded")
	}
	if got := db.RelationNames(); len(got) != 4 {
		t.Fatalf("RelationNames = %v", got)
	}
	if db.MaxRelationSize() != 1 {
		t.Fatalf("MaxRelationSize = %d", db.MaxRelationSize())
	}
	if err := db.ParseFacts("nonsense line"); err == nil {
		t.Fatalf("garbage accepted")
	}
	if err := db.ParseFacts("enrolled(a)."); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
	// facts no query can read: a relation named by a stray token, an empty
	// or blank constant
	for _, bad := range []string{"r(a) . . s(b)", "r(a,,b).", "ok(a).\nr(a, ).", "r( ,a).", "1r(a).", "r-s(a).", "r s(a)."} {
		fresh := NewDatabase()
		err := fresh.ParseFacts(bad)
		if err == nil {
			t.Fatalf("%q accepted: relations %v", bad, fresh.RelationNames())
		}
		if line := strings.Count(bad, "\n") + 1; !strings.Contains(err.Error(), fmt.Sprintf("line %d:", line)) {
			t.Fatalf("%q: error %q does not name line %d", bad, err, line)
		}
	}
	if err := NewDatabase().ParseFacts("_r(a). r'2(b). r(a) s(b)"); err != nil {
		t.Fatalf("identifier relation names rejected: %v", err)
	}
}

func TestRelationStringWith(t *testing.T) {
	db := NewDatabase()
	db.AddFact("r", "b", "c")
	db.AddFact("r", "a", "b")
	s := db.Relation("r").StringWith(db)
	if !strings.HasPrefix(s, "r(a,b).") {
		t.Fatalf("StringWith not sorted: %q", s)
	}
}

func TestBindConstantAndRepeatedVars(t *testing.T) {
	db := NewDatabase()
	db.AddFact("e", "a", "a", "x")
	db.AddFact("e", "a", "b", "x")
	db.AddFact("e", "b", "b", "y")
	rel := db.Relation("e")

	// e(X, X, Z): repeated variable selects rows with col0 == col1
	tab, err := Bind(rel, []Arg{BindVar(0), BindVar(0), BindVar(2)})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows() != 2 || len(tab.Vars) != 2 {
		t.Fatalf("e(X,X,Z): rows=%d vars=%v", tab.Rows(), tab.Vars)
	}

	// e(X, Y, "x"): constant selection
	xv, _ := db.Lookup("x")
	tab2, err := Bind(rel, []Arg{BindVar(0), BindVar(1), BindConst(xv)})
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Rows() != 2 {
		t.Fatalf("e(X,Y,x): rows=%d", tab2.Rows())
	}

	// arity mismatch
	if _, err := Bind(rel, []Arg{BindVar(0)}); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
}

func TestProjectDedups(t *testing.T) {
	db := NewDatabase()
	db.AddFact("r", "a", "x")
	db.AddFact("r", "a", "y")
	db.AddFact("r", "b", "z")
	tab, _ := Bind(db.Relation("r"), []Arg{BindVar(7), BindVar(9)})
	p := tab.Project([]int{7})
	if p.Rows() != 2 {
		t.Fatalf("projection should dedup: rows=%d", p.Rows())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("projecting onto a foreign variable should panic")
		}
	}()
	tab.Project([]int{42})
}

func TestJoinSemijoinBasics(t *testing.T) {
	db := NewDatabase()
	db.ParseFacts(`
r(a, b). r2(zzz, zzz).
`)
	// build tables manually
	left := NewTable([]int{0, 1})
	left.addRow([]Value{db.Intern("a"), db.Intern("b")})
	left.addRow([]Value{db.Intern("a"), db.Intern("c")})
	left.addRow([]Value{db.Intern("d"), db.Intern("e")})

	right := NewTable([]int{1, 2})
	right.addRow([]Value{db.Intern("b"), db.Intern("u")})
	right.addRow([]Value{db.Intern("b"), db.Intern("v")})
	right.addRow([]Value{db.Intern("e"), db.Intern("w")})

	j := left.Join(right)
	if j.Rows() != 3 { // (a,b,u), (a,b,v), (d,e,w)
		t.Fatalf("join rows = %d, want 3", j.Rows())
	}
	if len(j.Vars) != 3 {
		t.Fatalf("join vars = %v", j.Vars)
	}

	// no shared vars: cross product
	solo := NewTable([]int{9})
	solo.addRow([]Value{db.Intern("q")})
	cross := left.Join(solo)
	if cross.Rows() != 3 {
		t.Fatalf("cross rows = %d", cross.Rows())
	}
}

func TestBooleanTables(t *testing.T) {
	tt := TrueTable()
	if tt.Empty() || tt.Rows() != 1 {
		t.Fatalf("TrueTable should have one empty row")
	}
	ff := NewTable(nil)
	if !ff.Empty() {
		t.Fatalf("empty boolean table")
	}
	if tt.Join(ff).Rows() != 0 {
		t.Fatalf("true ⋈ false = false")
	}
	if tt.Join(tt.Clone()).Rows() != 1 {
		t.Fatalf("true ⋈ true = true")
	}
}

func TestTableEqual(t *testing.T) {
	a := NewTable([]int{1, 2})
	a.addRow([]Value{10, 20})
	a.addRow([]Value{30, 40})
	// same rows, reordered columns
	b := NewTable([]int{2, 1})
	b.addRow([]Value{40, 30})
	b.addRow([]Value{20, 10})
	if !a.Equal(b) {
		t.Fatalf("Equal should be column-order independent")
	}
	c := NewTable([]int{1, 2})
	c.addRow([]Value{10, 20})
	if a.Equal(c) {
		t.Fatalf("different cardinalities")
	}
	d := NewTable([]int{1, 3})
	d.addRow([]Value{10, 20})
	d.addRow([]Value{30, 40})
	if a.Equal(d) {
		t.Fatalf("different variable sets")
	}
}

// Property: join agrees with a nested-loop reference implementation.
func TestPropertyJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		// tables over overlapping variable sets {0,1} and {1,2} (or disjoint)
		tv := []int{0, 1}
		uv := []int{1, 2}
		if rng.Intn(4) == 0 {
			uv = []int{2, 3}
		}
		mk := func(vars []int, n int) *Table {
			tab := NewTable(vars)
			for i := 0; i < n; i++ {
				row := make([]Value, len(vars))
				for j := range row {
					row[j] = Value(rng.Intn(4))
				}
				tab.addRow(row)
			}
			tab.dedup()
			return tab
		}
		a := mk(tv, rng.Intn(8))
		b := mk(uv, rng.Intn(8))

		got := a.Join(b)
		want := nestedLoopJoin(a, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d: join mismatch", trial)
		}
	}
}

func nestedLoopJoin(a, b *Table) *Table {
	var vars []int
	vars = append(vars, a.Vars...)
	for _, v := range b.Vars {
		if a.col(v) < 0 {
			vars = append(vars, v)
		}
	}
	out := NewTable(vars)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			row := make([]Value, 0, len(vars))
			ok := true
			for _, v := range vars {
				var val Value
				ac, bc := a.col(v), b.col(v)
				switch {
				case ac >= 0 && bc >= 0:
					if a.Row(i)[ac] != b.Row(j)[bc] {
						ok = false
					}
					val = a.Row(i)[ac]
				case ac >= 0:
					val = a.Row(i)[ac]
				default:
					val = b.Row(j)[bc]
				}
				row = append(row, val)
			}
			if ok {
				out.addRow(row)
			}
		}
	}
	out.dedup()
	return out
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	db := NewDatabase()
	if err := db.ParseFacts("r(a,b). r(b,c). s(a)."); err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()

	// Same content, same Value meaning.
	if clone.UniverseSize() != db.UniverseSize() {
		t.Fatalf("universe %d != %d", clone.UniverseSize(), db.UniverseSize())
	}
	for _, name := range db.RelationNames() {
		if got, want := clone.Relation(name).StringWith(clone), db.Relation(name).StringWith(db); got != want {
			t.Fatalf("relation %s differs after clone:\n%s\nvs\n%s", name, got, want)
		}
	}
	va, _ := db.Lookup("a")
	ca, ok := clone.Lookup("a")
	if !ok || ca != va {
		t.Fatalf("clone Value for a = %d, want %d", ca, va)
	}

	// Mutating the clone must not leak into the original: new constants,
	// new tuples, dedup of existing tuples.
	if err := clone.AddFact("r", "fresh", "b"); err != nil {
		t.Fatal(err)
	}
	if err := clone.AddFact("r", "a", "b"); err != nil { // duplicate: ignored
		t.Fatal(err)
	}
	if db.Relation("r").Rows() != 2 || clone.Relation("r").Rows() != 3 {
		t.Fatalf("rows db=%d clone=%d, want 2/3", db.Relation("r").Rows(), clone.Relation("r").Rows())
	}
	if _, leaked := db.Lookup("fresh"); leaked {
		t.Fatal("interning into the clone leaked into the original dictionary")
	}
	if db.UniverseSize() != 3 || clone.UniverseSize() != 4 {
		t.Fatalf("universe db=%d clone=%d, want 3/4", db.UniverseSize(), clone.UniverseSize())
	}
	// And the original keeps working independently.
	if err := db.AddFact("s", "z"); err != nil {
		t.Fatal(err)
	}
	if clone.Relation("s").Rows() != 1 {
		t.Fatal("original mutation leaked into the clone")
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

func tableOf(vars []int, rows ...[]Value) *Table {
	t := NewTable(vars)
	for _, r := range rows {
		t.addRow(r)
	}
	return t
}

// doubled returns a table holding every row of a twice: the bag union of a
// with itself.
func doubled(a *Table) *Table {
	u := a.Clone()
	u.data = append(u.data, a.data...)
	u.rows += a.rows
	return u
}

// Deduplicating a union that is all duplicates allocates a constant
// number of objects — the union's copy and one row index — however many
// distinct rows it holds. A string-keyed map paid one key per distinct row
// (≈ 1 000 here), and ≥ 2 a row before its key buffer was hoisted.
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
	if allocs > 8 {
		t.Fatalf("dedup of %d distinct rows allocates %v times, want ≤ 8", rows, allocs)
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
