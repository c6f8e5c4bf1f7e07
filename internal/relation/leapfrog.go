package relation

import (
	"context"
	"fmt"
)

// LeapfrogJoinColumnar computes the natural join of sorted Columnars with a
// leapfrog-triejoin: the join proceeds variable by variable over the global
// order, intersecting the trie levels of all inputs containing that variable
// by leapfrogging seeks. The kernel is worst-case optimal: with the order's
// existential suffix chosen from a fractional edge cover, total work is
// bounded by the AGM output bound rather than by intermediate join sizes.
//
// Every input's column order must be a subsequence of order (see SubOrder),
// and order must enumerate exactly the union of their variables; the first
// nOut of them are the output columns. Because output variables lead the
// order and enumeration is lexicographic, the result arrives sorted and
// distinct — trailing (existential) variables are short-circuited after the
// first witness, so no dedup pass is needed — and each output binding is
// emitted straight into the result's columns, a Columnar as it stands.
// capHint, when positive, pre-sizes the output (callers pass the AGM bound
// r^fhw, clamped to what the inputs justify). Columnars are immutable, so
// callers may share them across concurrent joins — concurrent executions
// over one database join the same cached encodings. ctx is polled every
// 4096 trie keys visited; a cancelled join returns ctx's error and no table.
func LeapfrogJoinColumnar(ctx context.Context, cols []*Columnar, order []int, nOut, capHint int) (*Columnar, error) {
	out := &Columnar{Vars: append([]int(nil), order[:nOut]...), cols: make([][]Value, nOut)}
	for _, c := range cols {
		if c.Rows() == 0 {
			return out, nil
		}
	}
	j := &leapfrogJoiner{ctx: ctx, nOut: nOut, out: out, binding: make([]Value, len(order))}
	j.atDepth = make([][]*TrieIter, len(order))
	for _, c := range cols {
		it := NewTrieIter(c)
		ci := 0
		for d, v := range order {
			if ci < len(c.Vars) && c.Vars[ci] == v {
				j.atDepth[d] = append(j.atDepth[d], it)
				ci++
			}
		}
		if ci != len(c.Vars) {
			panic(fmt.Sprintf("relation: leapfrog columnar vars %v not a subsequence of order %v", c.Vars, order))
		}
	}
	for d, its := range j.atDepth {
		if len(its) == 0 {
			panic(fmt.Sprintf("relation: leapfrog order variable %d covered by no relation", order[d]))
		}
	}
	if capHint > 0 {
		for i := range out.cols {
			out.cols[i] = make([]Value, 0, capHint)
		}
	}
	j.run(0)
	if j.err != nil {
		return nil, j.err
	}
	return out, nil
}

// leapfrogJoiner holds the recursion state of one LeapfrogJoinColumnar call.
type leapfrogJoiner struct {
	ctx     context.Context
	err     error // ctx's, once a poll saw it cancelled
	tick    int
	nOut    int
	atDepth [][]*TrieIter // iterators participating at each depth
	binding []Value
	out     *Columnar
}

// run enumerates the join at depth d (binding[:d] fixed) and reports whether
// the subtree emitted at least one row — the signal the existential
// short-circuit keys off. With no variables at all (an all-Boolean join of
// non-empty tables) it emits the single empty row.
func (j *leapfrogJoiner) run(d int) bool {
	if d == len(j.atDepth) {
		for i := range j.out.cols {
			j.out.cols[i] = append(j.out.cols[i], j.binding[i])
		}
		j.out.rows++
		return true
	}
	its := j.atDepth[d]
	for _, it := range its {
		it.Open()
	}
	found := false
	live := true
	for _, it := range its {
		if it.AtEnd() {
			live = false
			break
		}
	}
	if live {
		// leapfrog init: order iterators by key (in place — a level holds
		// at most |λ| of them), then intersect.
		for a := 1; a < len(its); a++ {
			for b := a; b > 0 && its[b].Key() < its[b-1].Key(); b-- {
				its[b], its[b-1] = its[b-1], its[b]
			}
		}
		p := 0
		for j.err == nil && leapfrogSearch(its, &p) {
			if j.tick++; j.tick&4095 == 0 {
				j.err = j.ctx.Err()
			}
			j.binding[d] = its[p].Key()
			if j.run(d + 1) {
				found = true
				if d >= j.nOut {
					// Existential depth: one witness per output prefix
					// suffices, so every emitted prefix is distinct.
					break
				}
			}
			its[p].Next()
			if its[p].AtEnd() {
				break
			}
			p = (p + 1) % len(its)
		}
	}
	for _, it := range its {
		it.Up()
	}
	return found
}

// leapfrogSearch advances the iterators round-robin — the least-positioned
// one seeks to the current maximum key — until all agree on one key (true)
// or some level is exhausted (false). On success its[*p] sits on the common
// key.
func leapfrogSearch(its []*TrieIter, p *int) bool {
	n := len(its)
	for {
		maxKey := its[(*p+n-1)%n].Key()
		cur := its[*p]
		if cur.Key() == maxKey {
			return true
		}
		cur.Seek(maxKey)
		if cur.AtEnd() {
			return false
		}
		*p = (*p + 1) % n
	}
}
