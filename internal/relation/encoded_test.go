package relation

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Database.Encoded keeps one encoding per key on its relation, pinned by
// the row count it was built at: the same key hits, another key is its own
// entry, a duplicate Add leaves the count and so still hits, growth misses
// once and then hits again, a failed build stores nothing, and an absent
// relation is built on every call and counted nowhere. A Clone starts with no encodings but
// counts into its original's counters; another NewDatabase counts alone.
func TestEncodedPinnedByRowCount(t *testing.T) {
	db := NewDatabase()
	r, err := db.AddRelation("r", 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := db.Intern("a"), db.Intern("b")
	r.Add(a, b)

	builds := 0
	// get fetches name under key from d, building r(X0, X1) of d in the
	// given order on a miss, and checks the hit flag, that d's counters
	// moved by exactly one in the right column, and that it built iff it
	// missed.
	get := func(d *Database, name, key string, order []int, wantHit bool) *Columnar {
		t.Helper()
		h0, m0 := d.EncodedCounts()
		b0 := builds
		enc, hit, err := d.Encoded(name, key, func() (*Columnar, error) {
			builds++
			rel := d.Relation(name)
			if rel == nil {
				rel = &Relation{Name: name, Arity: 2}
			}
			return BindColumnar(rel, []Arg{BindVar(0), BindVar(1)}, order)
		})
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := d.EncodedCounts()
		if hit != wantHit || h1-h0+m1-m0 != 1 || (h1 > h0) != wantHit || (builds > b0) == wantHit {
			t.Fatalf("%s %q: hit = %v (counters +%d/+%d, %d builds), want hit = %v", name, key, hit, h1-h0, m1-m0, builds-b0, wantHit)
		}
		return enc
	}

	first := get(db, "r", "0,1|0,1", []int{0, 1}, false)
	if got := get(db, "r", "0,1|0,1", []int{0, 1}, true); got != first {
		t.Fatal("same relation, same key: want the cached encoding back")
	}
	// Another key is another entry, and leaves the first one alone.
	if swapped := get(db, "r", "0,1|1,0", []int{1, 0}, false); swapped == first || swapped.Vars[0] != 1 {
		t.Fatalf("another key served %v", swapped.Vars)
	}
	get(db, "r", "0,1|0,1", []int{0, 1}, true)

	// A duplicate adds no row, so the entry still stands.
	r.Add(a, b)
	if got := get(db, "r", "0,1|0,1", []int{0, 1}, true); got != first {
		t.Fatal("a duplicate Add invalidated the encoding")
	}
	// Growth changes the row count: one rebuild over the new rows, then hits.
	r.Add(b, a)
	grown := get(db, "r", "0,1|0,1", []int{0, 1}, false)
	if grown.Rows() != 2 {
		t.Fatalf("rebuilt encoding holds %d rows, want 2", grown.Rows())
	}
	if got := get(db, "r", "0,1|0,1", []int{0, 1}, true); got != grown {
		t.Fatal("the rebuilt encoding was not cached")
	}

	// A failed build is returned and stores nothing.
	boom := errors.New("boom")
	if _, hit, err := db.Encoded("r", "failing", func() (*Columnar, error) { return nil, boom }); hit || err != boom {
		t.Fatalf("failed build: hit = %v, err = %v", hit, err)
	}
	get(db, "r", "failing", []int{0, 1}, false)

	// An absent relation is empty: built on every call, never stored, and
	// not counted.
	h0, m0 := db.EncodedCounts()
	b0 := builds
	for k := range 2 {
		enc, hit, err := db.Encoded("s", "0,1|0,1", func() (*Columnar, error) {
			builds++
			return BindColumnar(&Relation{Name: "s", Arity: 2}, []Arg{BindVar(0), BindVar(1)}, []int{0, 1})
		})
		if err != nil || hit || enc.Rows() != 0 || builds != b0+k+1 {
			t.Fatalf("absent relation: %d rows, hit = %v, err = %v, %d builds", enc.Rows(), hit, err, builds-b0)
		}
	}
	if h1, m1 := db.EncodedCounts(); h1 != h0 || m1 != m0 {
		t.Fatalf("absent relation moved the counters %d/%d → %d/%d", h0, m0, h1, m1)
	}
	if db.Relation("s") != nil {
		t.Fatal("Encoded created the absent relation")
	}

	// One entry per key: the two orders and "failing".
	if n := r.Encodings(); n != 3 {
		t.Fatalf("r holds %d encodings, want 3", n)
	}

	// A Clone starts cold, shares the counters, and leaves db's entries be.
	clone := db.Clone()
	if n := clone.Relation("r").Encodings(); n != 0 {
		t.Fatalf("a Clone's relation starts with %d encodings", n)
	}
	h0, m0 = db.EncodedCounts()
	if c := get(clone, "r", "0,1|0,1", []int{0, 1}, false); c == grown || c.Rows() != 2 {
		t.Fatal("a Clone served its original's encoding")
	}
	if h1, m1 := db.EncodedCounts(); h1 != h0 || m1 != m0+1 {
		t.Fatalf("the Clone's miss moved its original's counters %d/%d → %d/%d, want one miss", h0, m0, h1, m1)
	}
	if got := get(db, "r", "0,1|0,1", []int{0, 1}, true); got != grown {
		t.Fatal("a Clone's build replaced its original's encoding")
	}

	// Another database counts on its own.
	other := NewDatabase()
	if err := other.AddFact("r", "a", "b"); err != nil {
		t.Fatal(err)
	}
	h0, m0 = db.EncodedCounts()
	get(other, "r", "0,1|0,1", []int{0, 1}, false)
	get(other, "r", "0,1|0,1", []int{0, 1}, true)
	if h1, m1 := db.EncodedCounts(); h1 != h0 || m1 != m0 {
		t.Fatalf("another database's fetches moved db's counters %d/%d → %d/%d", h0, m0, h1, m1)
	}
}

// Concurrent fetches of a few keys, and a Clone taken meanwhile, agree on
// every key's encoding and count each fetch once. Run under -race.
func TestEncodedConcurrent(t *testing.T) {
	db := NewDatabase()
	if err := db.ParseFacts(binaryFacts(1, 200, 50)); err != nil {
		t.Fatal(err)
	}
	r := db.Relation("r1")
	orders := [][]int{{0, 1}, {1, 0}}
	const workers, fetches = 8, 50
	got := make([][]*Columnar, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range fetches {
				order := orders[i%2]
				enc, _, err := db.Encoded("r1", fmt.Sprint(order), func() (*Columnar, error) {
					return BindColumnar(r, []Arg{BindVar(0), BindVar(1)}, order)
				})
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], enc)
			}
		}()
	}
	clone := db.Clone()
	wg.Wait()
	for w := range workers {
		for i, enc := range got[w] {
			if enc.Rows() != r.Rows() || enc.Vars[0] != orders[i%2][0] {
				t.Fatalf("worker %d fetch %d: %d rows over %v", w, i, enc.Rows(), enc.Vars)
			}
		}
	}
	if hits, misses := clone.EncodedCounts(); hits+misses != workers*fetches || misses < 2 {
		t.Fatalf("%d hits and %d misses for %d fetches of two keys", hits, misses, workers*fetches)
	}
}
