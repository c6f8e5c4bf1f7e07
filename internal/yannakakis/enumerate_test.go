package yannakakis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertree/internal/cq"
	"hypertree/internal/relation"
)

// An 8-leaf star over one centre of degree 300 has 300⁸ ≈ 6.5e19 answers,
// more than an int64 holds: the count saturates at math.MaxInt64 instead of
// wrapping, and the first rows still come straight off the tries.
func TestCountSaturatesOnWideStar(t *testing.T) {
	const leaves, degree = 8, 300
	db := relation.NewDatabase()
	var atoms, head []string
	for i := 1; i <= leaves; i++ {
		for j := 0; j < degree; j++ {
			db.AddFact(fmt.Sprint("r", i), "c", fmt.Sprint("x", j))
		}
		atoms = append(atoms, fmt.Sprintf("r%d(C, X%d)", i, i))
		head = append(head, fmt.Sprint("X", i))
	}
	q := cq.MustParse(fmt.Sprintf("ans(C, %s) :- %s.", strings.Join(head, ", "), strings.Join(atoms, ", ")))
	root, err := columnarTree(db, q, treeFor(q))
	if err != nil {
		t.Fatal(err)
	}
	var vars []int
	for _, a := range q.Head.Args {
		v, _ := q.VarIndex(a.Name)
		vars = append(vars, v)
	}
	a, err := NewAnswers(context.Background(), root, vars)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Count() != math.MaxInt64 {
		t.Fatalf("Count = %d, want math.MaxInt64", a.Count())
	}
	var seen [][]relation.Value
	for range 10 {
		row, ok := a.Next()
		if !ok {
			t.Fatalf("the cursor ran out after %d rows: %v", len(seen), a.Err())
		}
		if slices.ContainsFunc(seen, func(r []relation.Value) bool { return slices.Equal(r, row) }) {
			t.Fatalf("row %v returned twice", row)
		}
		seen = append(seen, slices.Clone(row))
	}
}

// Once a node's prefix sums saturate, a run after that point must still
// sum exactly, and a zero-count row must still read 0: the counts fall back
// to the per-row values.
func TestSaturatedPrefixSumsStayExactPerRun(t *testing.T) {
	counts := []int64{math.MaxInt64 / 2, math.MaxInt64/2 + 7, 5, 0, 7}
	n := &enode{ps: make([]int64, len(counts)+1)}
	for r, c := range counts {
		n.setCount(r, c)
	}
	for _, tc := range []struct{ lo, hi int64 }{{2, 5}, {4, 5}, {2, 3}, {3, 4}} {
		want := int64(0)
		for _, c := range counts[tc.lo:tc.hi] {
			want += c
		}
		if got := n.runSum(int(tc.lo), int(tc.hi)); got != want {
			t.Fatalf("runSum(%d, %d) = %d, want %d", tc.lo, tc.hi, got, want)
		}
	}
	if got := n.runSum(0, len(counts)); got != math.MaxInt64 {
		t.Fatalf("the whole node sums to %d, want math.MaxInt64", got)
	}
	for r, c := range counts {
		if got := n.rowCount(r); got != c {
			t.Fatalf("rowCount(%d) = %d, want %d", r, got, c)
		}
	}
}

// A request deadline interrupts the count pass in progress, which polls the
// context every 4 096 rows. The tree is a root of 2¹⁹ rows under which 8
// children each need a galloped two-column lookup per row: the full pass
// (≈ 0.3 s on one Xeon vCPU) is still going when a 50 ms deadline expires,
// and with a 5 ms deadline NewAnswers must come back DeadlineExceeded within
// 50 ms.
func TestDeadlineInterruptsCountPass(t *testing.T) {
	const n, kids = 1 << 19, 8
	rdata := make([]relation.Value, 0, 2*n)
	cdata := make([]relation.Value, 0, 3*n)
	for i := range relation.Value(n) {
		rdata = append(rdata, 0, i)
		cdata = append(cdata, 0, i, i)
	}
	child := relation.NewColumnar(relation.NewTableOf([]int{0, 1, 2}, cdata), []int{0, 1, 2})
	root := &Node{Enc: relation.NewColumnar(relation.NewTableOf([]int{0, 1}, rdata), []int{0, 1})}
	for range kids {
		root.Children = append(root.Children, &Node{Enc: child})
	}
	for _, d := range []time.Duration{50 * time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		start := time.Now()
		_, err := NewAnswers(ctx, root, []int{0, 1})
		took := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v deadline: err = %v after %v, want DeadlineExceeded (the full pass must outlast 50 ms)", d, err, took)
		}
		if took > d+45*time.Millisecond {
			t.Fatalf("%v deadline: the count pass came back after %v", d, took)
		}
	}
}
