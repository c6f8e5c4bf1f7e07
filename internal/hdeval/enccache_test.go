package hdeval

import (
	"testing"

	"hypertree/internal/relation"
)

// The encoding cache pins each entry by its relation and row count: the
// same relation and key hit; another database's relation under the key (an
// absent one here) misses and replaces the entry, so touching the first
// relation again misses too; a relation that grew in place misses.
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
	get := func(rel *relation.Relation, wantHit bool) *relation.Columnar {
		t.Helper()
		h0, m0 := ColumnarCacheCounters()
		got, hit, err := c.get(rel, key, enc)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := ColumnarCacheCounters()
		if hit != wantHit || h1-h0+m1-m0 != 1 || (h1 > h0) != wantHit {
			t.Fatalf("hit = %v (counters +%d/+%d), want hit = %v", hit, h1-h0, m1-m0, wantHit)
		}
		return got
	}

	first := get(rel, false)
	if second := get(rel, true); first != second {
		t.Fatal("same relation, same key: want the cached encoding back")
	}
	// Swap the database: db2 has no r, the entry must rebuild.
	get(db2.Relation("r"), false)
	// And db1's entry is gone: touching db1 again misses too.
	get(rel, false)
	get(rel, true)
	// The relation grows in place: same relation pointer, stale encoding.
	rel.Add(db1.Intern("b"))
	get(rel, false)
	get(rel, true)
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
