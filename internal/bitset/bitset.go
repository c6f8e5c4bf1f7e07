// Package bitset implements dense bit vectors used to represent sets of
// variables and sets of edges throughout the decomposition algorithms.
//
// A Set is a little-endian slice of 64-bit words. The zero value is the
// empty set. Sets are value-like: mutating methods have pointer receivers
// or explicit "InPlace" names, while binary operations return fresh sets.
// All operations tolerate operands of different lengths.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bit vector. Bit i is element i.
type Set []uint64

// New returns a set with capacity for n elements, all absent.
func New(n int) Set {
	return make(Set, (n+wordBits-1)/wordBits)
}

// FromSlice returns the set containing exactly the given elements.
func FromSlice(elems []int) Set {
	var s Set
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Of returns the set containing exactly the given elements.
func Of(elems ...int) Set {
	return FromSlice(elems)
}

// Add inserts element i, growing the set as needed.
func (s *Set) Add(i int) {
	w := i / wordBits
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << uint(i%wordBits)
}

// Remove deletes element i if present.
func (s Set) Remove(i int) {
	w := i / wordBits
	if w < len(s) {
		s[w] &^= 1 << uint(i%wordBits)
	}
}

// Has reports whether element i is present.
func (s Set) Has(i int) bool {
	w := i / wordBits
	return w < len(s) && s[w]&(1<<uint(i%wordBits)) != 0
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements (population count).
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of s trimmed of trailing zero words.
func (s Set) Clone() Set {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	c := make(Set, n)
	copy(c, s[:n])
	return c
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	a, b := s, t
	if len(a) < len(b) {
		a, b = b, a
	}
	r := a.Clone()
	for i, w := range b {
		if w == 0 {
			continue
		}
		for len(r) <= i {
			r = append(r, 0)
		}
		r[i] |= w
	}
	return r
}

// UnionInPlace adds all elements of t to s.
func (s *Set) UnionInPlace(t Set) {
	for i, w := range t {
		if w == 0 {
			continue
		}
		for len(*s) <= i {
			*s = append(*s, 0)
		}
		(*s)[i] |= w
	}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	n := min(len(s), len(t))
	r := make(Set, n)
	for i := 0; i < n; i++ {
		r[i] = s[i] & t[i]
	}
	return r
}

// Intersects reports whether s ∩ t is non-empty.
func (s Set) Intersects(t Set) bool {
	n := min(len(s), len(t))
	for i := 0; i < n; i++ {
		if s[i]&t[i] != 0 {
			return true
		}
	}
	return false
}

// Diff returns s − t.
func (s Set) Diff(t Set) Set {
	r := s.Clone()
	n := min(len(r), len(t))
	for i := 0; i < n; i++ {
		r[i] &^= t[i]
	}
	return r
}

// SubsetOf reports whether every element of s is in t.
func (s Set) SubsetOf(t Set) bool {
	for i, w := range s {
		if i < len(t) {
			if w&^t[i] != 0 {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Elems returns the elements in increasing order.
func (s Set) Elems() []int {
	out := make([]int, 0, s.Len())
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls f for each element in increasing order.
func (s Set) ForEach(f func(int)) {
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(i*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s Set) Min() int {
	for i, w := range s {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns a compact string usable as a map key. Two sets with the same
// elements yield the same key regardless of trailing zero words.
func (s Set) Key() string {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		w := s[i]
		b.WriteByte(byte(w))
		b.WriteByte(byte(w >> 8))
		b.WriteByte(byte(w >> 16))
		b.WriteByte(byte(w >> 24))
		b.WriteByte(byte(w >> 32))
		b.WriteByte(byte(w >> 40))
		b.WriteByte(byte(w >> 48))
		b.WriteByte(byte(w >> 56))
	}
	return b.String()
}

// String renders the set as {0,3,17}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
