package hdeval

import (
	"testing"

	"hypertree/internal/relation"
)

// The encoding cache: same database, relation and key hit; a new database
// pointer is a new generation and drops every prior entry; a relation that
// grew in place is a miss even within its generation.
func TestEncCacheGenerations(t *testing.T) {
	db1 := relation.NewDatabase()
	db2 := relation.NewDatabase()
	rel, err := db1.AddRelation("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	rel.Add(db1.Intern("a"))
	tab := relation.NewTable([]int{0})
	enc := func() (*relation.Columnar, error) { return relation.NewColumnar(tab, []int{0}), nil }

	var c encCache
	key := encKey{edge: 0, order: "0,", width: 1}
	// get reports the encoding and whether it was a hit, and must move the
	// process-wide counters by exactly one.
	get := func(db *relation.Database, rel *relation.Relation, wantHit bool) *relation.Columnar {
		t.Helper()
		h0, m0 := ColumnarCacheCounters()
		got, hit, err := c.get(db, rel, key, enc)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := ColumnarCacheCounters()
		if hit != wantHit || h1-h0+m1-m0 != 1 || (h1 > h0) != wantHit {
			t.Fatalf("hit = %v (counters +%d/+%d), want hit = %v", hit, h1-h0, m1-m0, wantHit)
		}
		return got
	}

	first := get(db1, rel, false)
	if second := get(db1, rel, true); first != second {
		t.Fatal("same generation, same key: want the cached encoding back")
	}
	// Swap the database: generation reset, the entry must rebuild.
	get(db2, nil, false)
	// And db1's entries are gone: touching db1 again misses too.
	get(db1, rel, false)
	get(db1, rel, true)
	// The relation grows in place: same database pointer, stale encoding.
	rel.Add(db1.Intern("b"))
	get(db1, rel, false)
	get(db1, rel, true)
}

// orderKey must injectively render orders (no "1,2" vs "12" collisions).
func TestOrderKeyInjective(t *testing.T) {
	if orderKey([]int{1, 2}) == orderKey([]int{12}) {
		t.Fatal("orderKey collides on {1,2} vs {12}")
	}
	if orderKey([]int{}) != "" {
		t.Fatalf("orderKey(empty) = %q", orderKey([]int{}))
	}
}
