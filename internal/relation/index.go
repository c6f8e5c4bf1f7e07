package relation

import (
	"math/bits"
	"math/rand/v2"
	"slices"
)

// hashSeed seeds every row hash, drawn once per process, so no fixed set of
// constants can line its rows up on one probe run.
var hashSeed = rand.Uint64()

// mix folds v into the row hash h: a 64×64→128-bit multiply whose halves
// are xor-folded, so every bit of h and v reaches the low bits a slot reads.
func mix(h uint64, v Value) uint64 {
	hi, lo := bits.Mul64(h^uint64(uint32(v)), 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// hashKey hashes a key of values.
func hashKey(key []Value) uint64 {
	h := hashSeed
	for _, v := range key {
		h = mix(h, v)
	}
	return h
}

// A rowIndex is a set of the rows of a flat row-major slice of width w.
// It holds no pointer: an open-addressed table of row numbers (row+1, 0 for
// an empty slot), probed linearly from a hash of the row's values and at
// most half full, so a probe run stays short and the index costs 8 to 16
// bytes a row. The rows themselves stay where they are, and a probe
// compares against them; a copy of the index is a copy of its slots.
type rowIndex struct {
	slots []int32
	n     int // the rows held
}

// newRowIndex returns an index with room for rows rows before it grows.
func newRowIndex(rows int) rowIndex {
	var x rowIndex
	if rows > 0 {
		x.slots = make([]int32, slotsFor(rows))
	}
	return x
}

// slotsFor returns the table size for n rows: a power of two, at least 8
// and at least 2n.
func slotsFor(n int) int {
	return max(8, 1<<bits.Len(uint(2*n-1)))
}

// find returns the slot of the row of data (width w) equal to key and that
// row, or, when no row is, the empty slot where it goes and -1. The slot is
// -1 in an index that has no table yet.
func (x *rowIndex) find(data []Value, w int, key []Value) (slot, row int) {
	if len(x.slots) == 0 {
		return -1, -1
	}
	mask := len(x.slots) - 1
	for s := int(hashKey(key)) & mask; ; s = (s + 1) & mask {
		r := int(x.slots[s]) - 1
		if r < 0 || slices.Equal(data[r*w:r*w+w], key) {
			return s, r
		}
	}
}

// add appends row to data (width w), whose rows are the ones held, unless
// it holds row already, and reports whether it appended.
func (x *rowIndex) add(data []Value, w int, row []Value) ([]Value, bool) {
	slot, r := x.find(data, w, row)
	if r >= 0 {
		return data, false
	}
	data = append(data, row...)
	x.insert(data, w, slot, x.n)
	return data, true
}

// insert records row, equal to no row held, at slot, the one find returned
// for it; data (width w) must already hold the row.
func (x *rowIndex) insert(data []Value, w, slot, row int) {
	if x.n++; 2*x.n > len(x.slots) {
		x.grow(data, w)
		mask := len(x.slots) - 1
		for slot = int(hashKey(data[row*w:row*w+w])) & mask; x.slots[slot] != 0; slot = (slot + 1) & mask {
		}
	}
	x.slots[slot] = int32(row + 1)
}

// grow rehashes the rows held into a table sized for n rows (the one being
// inserted counted).
func (x *rowIndex) grow(data []Value, w int) {
	old := x.slots
	x.slots = make([]int32, slotsFor(x.n))
	mask := len(x.slots) - 1
	for _, r := range old {
		if r == 0 {
			continue
		}
		s := int(hashKey(data[int(r-1)*w:int(r)*w])) & mask
		for x.slots[s] != 0 {
			s = (s + 1) & mask
		}
		x.slots[s] = r
	}
}

// clone returns an independent copy.
func (x *rowIndex) clone() rowIndex {
	return rowIndex{slots: slices.Clone(x.slots), n: x.n}
}
