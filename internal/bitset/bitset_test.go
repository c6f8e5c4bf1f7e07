package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("zero value should be empty")
	}
	s.Add(3)
	s.Add(64)
	s.Add(130)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, i := range []int{3, 64, 130} {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	if s.Has(2) || s.Has(65) || s.Has(1000) {
		t.Errorf("unexpected membership")
	}
	s.Remove(64)
	if s.Has(64) || s.Len() != 2 {
		t.Errorf("Remove failed: %v", s)
	}
	s.Remove(9999) // out of range: no-op
	if got := s.String(); got != "{3,130}" {
		t.Errorf("String = %q", got)
	}
}

func TestOfAndElems(t *testing.T) {
	s := Of(5, 1, 200, 1)
	want := []int{1, 5, 200}
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	if s.Min() != 1 {
		t.Errorf("Min = %d, want 1", s.Min())
	}
	if (Set{}).Min() != -1 {
		t.Errorf("Min of empty should be -1")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(1, 2, 3, 70)
	b := Of(3, 4, 70, 150)

	u := a.Union(b)
	if u.String() != "{1,2,3,4,70,150}" {
		t.Errorf("Union = %v", u)
	}
	i := a.Intersect(b)
	if i.String() != "{3,70}" {
		t.Errorf("Intersect = %v", i)
	}
	d := a.Diff(b)
	if d.String() != "{1,2}" {
		t.Errorf("Diff = %v", d)
	}
	if !a.Intersects(b) {
		t.Errorf("Intersects = false")
	}
	if a.Intersects(Of(9, 10)) {
		t.Errorf("Intersects = true for disjoint sets")
	}
	if !Of(1, 2).SubsetOf(a) {
		t.Errorf("SubsetOf = false")
	}
	if Of(1, 4).SubsetOf(a) {
		t.Errorf("SubsetOf = true for non-subset")
	}
	if Of(200).SubsetOf(a) {
		t.Errorf("SubsetOf should handle longer operand")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := Of(1, 2)
	a.UnionInPlace(Of(2, 3, 100))
	if a.String() != "{1,2,3,100}" {
		t.Errorf("UnionInPlace = %v", a)
	}
}

func TestKeyNormalization(t *testing.T) {
	a := Of(1, 2)
	b := make(Set, 5)
	b.Add(1)
	b.Add(2)
	if a.Key() != b.Key() {
		t.Errorf("Key should ignore trailing zero words")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Errorf("Equal should ignore trailing zero words")
	}
	if a.Key() == Of(1, 3).Key() {
		t.Errorf("distinct sets must have distinct keys")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(1, 2, 3)
	c := a.Clone()
	c.Add(99)
	if a.Has(99) {
		t.Errorf("Clone must not alias")
	}
	var empty Set
	if empty.Clone() != nil {
		t.Errorf("Clone of empty should be nil")
	}
}

// reference implementation on sorted int slices, for property tests.
type model map[int]bool

func toModel(xs []uint8) model {
	m := model{}
	for _, x := range xs {
		m[int(x)] = true
	}
	return m
}

func toSet(m model) Set {
	var s Set
	for k := range m {
		s.Add(k)
	}
	return s
}

func (m model) elems() []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func TestQuickAgainstModel(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		ma, mb := toModel(xs), toModel(ys)
		a, b := toSet(ma), toSet(mb)

		// union
		mu := model{}
		for k := range ma {
			mu[k] = true
		}
		for k := range mb {
			mu[k] = true
		}
		if !a.Union(b).Equal(toSet(mu)) {
			return false
		}
		// intersection
		mi := model{}
		for k := range ma {
			if mb[k] {
				mi[k] = true
			}
		}
		if !a.Intersect(b).Equal(toSet(mi)) {
			return false
		}
		// difference
		md := model{}
		for k := range ma {
			if !mb[k] {
				md[k] = true
			}
		}
		if !a.Diff(b).Equal(toSet(md)) {
			return false
		}
		// len and elems
		if a.Len() != len(ma) {
			return false
		}
		got := a.Elems()
		want := ma.elems()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// subset coherence
		if a.SubsetOf(b) != (len(md) == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := toSet(toModel(xs)), toSet(toModel(ys))
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var s Set
		for i := 0; i < 50; i++ {
			s.Add(rng.Intn(500))
		}
		prev := -1
		s.ForEach(func(i int) {
			if i <= prev {
				t.Fatalf("ForEach out of order: %d after %d", i, prev)
			}
			prev = i
		})
	}
}
