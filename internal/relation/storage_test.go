package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// binaryFacts returns rows facts r1(cX, cY). … rN(cX, cY). a relation, for
// rels relations over domain constants drawn from a seeded source.
func binaryFacts(rels, rows, domain int) string {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for r := 1; r <= rels; r++ {
		for range rows {
			fmt.Fprintf(&b, "r%d(c%d, c%d).\n", r, rng.Intn(domain), rng.Intn(domain))
		}
	}
	return b.String()
}

// oracleRow is a tuple of arity ≤ 4 as a map key.
type oracleRow [4]Value

// checkAgainstOracle holds r to the tuples of rows, in insertion order,
// and to their set: Rows, every Row, Has on each and on absent tuples.
func checkAgainstOracle(t *testing.T, r *Relation, rows []oracleRow, set map[oracleRow]bool, rng *rand.Rand, domain int) {
	t.Helper()
	if r.Rows() != len(rows) {
		t.Fatalf("arity %d: %d rows, the oracle holds %d", r.Arity, r.Rows(), len(rows))
	}
	for i, want := range rows {
		if got := r.Row(i); !slices.Equal(got, want[:r.Arity]) {
			t.Fatalf("arity %d: row %d is %v, want %v", r.Arity, i, got, want[:r.Arity])
		}
		if !r.Has(want[:r.Arity]...) {
			t.Fatalf("arity %d: Has misses row %d %v", r.Arity, i, want[:r.Arity])
		}
	}
	for range 20 {
		var probe oracleRow
		for j := range r.Arity {
			probe[j] = Value(rng.Intn(2 * domain))
		}
		if got := r.Has(probe[:r.Arity]...); got != set[probe] {
			t.Fatalf("arity %d: Has(%v) = %v, the oracle says %v", r.Arity, probe[:r.Arity], got, set[probe])
		}
	}
}

// Relation.Add, Has and Rows against a Go map: arities 0 to 4, domains
// from two values (nearly every Add a duplicate) to a thousand, checked in
// full on both sides of every index growth (n a power of two, and one
// more), then a database Clone taken halfway — sharing no memory with its
// original — and both sides grown apart with different tuples.
func TestRelationMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for arity := 0; arity <= 4; arity++ {
		for _, domain := range []int{2, 5, 1000} {
			db := NewDatabase()
			r, err := db.AddRelation("r", arity)
			if err != nil {
				t.Fatal(err)
			}
			type side struct {
				r    *Relation
				rows []oracleRow
				set  map[oracleRow]bool
			}
			add := func(s *side) {
				var tup oracleRow
				for j := range arity {
					tup[j] = Value(rng.Intn(domain))
				}
				if got := s.r.Has(tup[:arity]...); got != s.set[tup] {
					t.Fatalf("arity %d domain %d: Has(%v) = %v before Add, the oracle says %v", arity, domain, tup[:arity], got, s.set[tup])
				}
				s.r.Add(tup[:arity]...)
				if !s.set[tup] {
					s.set[tup] = true
					s.rows = append(s.rows, tup)
					if n := len(s.rows); n&(n-1) == 0 || (n-1)&(n-2) == 0 {
						checkAgainstOracle(t, s.r, s.rows, s.set, rng, domain)
					}
				}
			}
			orig := &side{r: r, set: map[oracleRow]bool{}}
			const adds = 3000
			for range adds / 2 {
				add(orig)
			}
			clone := &side{r: db.Clone().Relation("r"), rows: slices.Clone(orig.rows), set: map[oracleRow]bool{}}
			if aliases(orig.r.data, clone.r.data) || aliases(orig.r.index.slots, clone.r.index.slots) {
				t.Fatalf("arity %d domain %d: the clone shares the original's rows or index", arity, domain)
			}
			for k := range orig.set {
				clone.set[k] = true
			}
			for range adds / 2 {
				add(orig)
				add(clone)
			}
			checkAgainstOracle(t, orig.r, orig.rows, orig.set, rng, domain)
			checkAgainstOracle(t, clone.r, clone.rows, clone.set, rng, domain)
			for _, ab := range [][2]*side{{orig, clone}, {clone, orig}} {
				for _, tup := range ab[0].rows {
					if !ab[1].set[tup] && ab[1].r.Has(tup[:arity]...) {
						t.Fatalf("arity %d domain %d: %v, added to one side after the Clone, shows on the other", arity, domain, tup[:arity])
					}
				}
			}
			if domain == 1000 && arity > 1 && slices.Equal(orig.rows, clone.rows) {
				t.Fatalf("arity %d: the clone and its original grew alike", arity)
			}
		}
	}
}

// aliases reports whether a and b share their backing array. A clone
// sharing its original's index would still answer its own lookups, since
// every probe compares against its own rows, but an ingest into it would
// write the slots readers of the original are probing.
func aliases[T any](a, b []T) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][0] == &b[:cap(b)][0]
}

// heapInUse returns the live heap after a collection.
func heapInUse() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The footprint guard: a loaded database of 3 × 50 000 binary facts over
// 25 000 constants retains at most 40 bytes a tuple once its text is
// dropped — 8 of values, 8 to 16 of row index, the rest the dictionary.
// A string-keyed tuple map and constants pinning the parsed text cost ≈ 90.
func TestLoadedFootprintPerTuple(t *testing.T) {
	before := heapInUse()
	db := NewDatabase()
	if err := db.ParseFacts(binaryFacts(3, 50_000, 25_000)); err != nil {
		t.Fatal(err)
	}
	retained := heapInUse() - before
	tuples := 0
	for _, name := range db.RelationNames() {
		tuples += db.Relation(name).Rows()
	}
	runtime.KeepAlive(db)
	perTuple := float64(retained) / float64(tuples)
	t.Logf("%d tuples, %d constants: %.2f MB retained, %.1f B a tuple", tuples, db.UniverseSize(), float64(retained)/1e6, perTuple)
	if perTuple > 40 {
		t.Fatalf("%.1f bytes retained a tuple, want ≤ 40", perTuple)
	}
}

// pointsInto reports whether s's bytes lie inside src's.
func pointsInto(s, src string) bool {
	if s == "" || src == "" {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// checkNoPin fails when a constant or relation name of db points into src.
func checkNoPin(t *testing.T, db *Database, src string) {
	t.Helper()
	for v := range Value(db.UniverseSize()) {
		if s := db.ValueName(v); pointsInto(s, src) {
			t.Fatalf("constant %q points into the parsed text", s)
		}
	}
	for s := range db.dict {
		if pointsInto(s, src) {
			t.Fatalf("dictionary key %q points into the parsed text", s)
		}
	}
	for _, name := range db.RelationNames() {
		if pointsInto(name, src) || pointsInto(db.Relation(name).Name, src) {
			t.Fatalf("relation name %q points into the parsed text", name)
		}
	}
	for name := range db.rels {
		if pointsInto(name, src) {
			t.Fatalf("relation key %q points into the parsed text", name)
		}
	}
}

// Interned names stop pinning their source: no constant or relation name
// of a database points into the text ParseFacts read, at boot or in a
// second parse into a clone (what an ingest runs), which brings new
// constants and a new relation.
func TestInternedNamesDoNotPinTheirSource(t *testing.T) {
	boot := binaryFacts(2, 200, 50) + "flag().\n"
	db := NewDatabase()
	if err := db.ParseFacts(boot); err != nil {
		t.Fatal(err)
	}
	checkNoPin(t, db, boot)

	ingest := fmt.Sprintf("r1(c1, fresh%d). r1(c2, c3).\nnewrel(c4, other%d, c5).\n", db.UniverseSize(), db.UniverseSize())
	next := db.Clone()
	if err := next.ParseFacts(ingest); err != nil {
		t.Fatal(err)
	}
	if next.Relation("newrel") == nil || next.UniverseSize() != db.UniverseSize()+2 {
		t.Fatalf("the ingest did not add its relation and constants: %v, %d constants", next.RelationNames(), next.UniverseSize())
	}
	checkNoPin(t, next, boot)
	checkNoPin(t, next, ingest)
}

// BenchmarkDatabaseClone is the copy /admin/ingest makes of a database of
// 3 × 50 000 binary facts over 25 000 constants.
func BenchmarkDatabaseClone(b *testing.B) {
	db := NewDatabase()
	if err := db.ParseFacts(binaryFacts(3, 50_000, 25_000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		db.Clone()
	}
}
