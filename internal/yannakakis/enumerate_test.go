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
	"hypertree/internal/obs"
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

// A request deadline interrupts the descent in progress, which polls the
// context every 4 096 rows, whether it counts or looks for a witness. The
// tree is a root of 2¹⁹ rows under which 8 children each need a galloped
// two-column lookup per row; for the Boolean descent the last child's keys all miss, so
// there is no witness and every root row is tried. The full descent
// (≈ 0.3 s on one Xeon vCPU) is still going when a 50 ms deadline expires,
// and with a 5 ms deadline it must come back DeadlineExceeded within 50 ms.
func TestDeadlineInterruptsCountPass(t *testing.T) {
	const n, kids = 1 << 19, 8
	rdata := make([]relation.Value, 0, 2*n)
	cdata := make([]relation.Value, 0, 3*n)
	mdata := make([]relation.Value, 0, 3*n)
	for i := range relation.Value(n) {
		rdata = append(rdata, 0, i)
		cdata = append(cdata, 0, i, i)
		mdata = append(mdata, 0, n+i, i)
	}
	child := relation.NewColumnar(relation.NewTableOf([]int{0, 1, 2}, cdata), []int{0, 1, 2})
	miss := relation.NewColumnar(relation.NewTableOf([]int{0, 1, 2}, mdata), []int{0, 1, 2})
	rootEnc := relation.NewColumnar(relation.NewTableOf([]int{0, 1}, rdata), []int{0, 1})
	tree := func(last *relation.Columnar) *Node {
		root := &Node{Enc: rootEnc}
		for range kids - 1 {
			root.Children = append(root.Children, &Node{Enc: child})
		}
		root.Children = append(root.Children, &Node{Enc: last})
		return root
	}
	counted, refuted := tree(child), tree(miss)
	legs := []struct {
		name string
		run  func(context.Context) error
	}{
		{"NewAnswers", func(ctx context.Context) error {
			_, err := NewAnswers(ctx, counted, []int{0, 1})
			return err
		}},
		{"exists", func(ctx context.Context) error {
			_, err := exists(ctx, refuted)
			return err
		}},
	}
	for _, leg := range legs {
		for _, d := range []time.Duration{50 * time.Millisecond, 5 * time.Millisecond} {
			ctx, cancel := context.WithTimeout(context.Background(), d)
			start := time.Now()
			err := leg.run(ctx)
			took := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s, %v deadline: err = %v after %v, want DeadlineExceeded (the full descent must outlast 50 ms)", leg.name, d, err, took)
			}
			if took > d+45*time.Millisecond {
				t.Fatalf("%s, %v deadline: the descent came back after %v", leg.name, d, took)
			}
		}
	}
	// The polls are spaced by work: past a deadline the count looks up at
	// most one poll interval of child runs (plus the row in progress), not
	// pollEvery rows of kids lookups each.
	tr := obs.New()
	ctx := &expiresAfterFirstLook{Context: obs.NewContext(context.Background(), tr)}
	if _, err := NewAnswers(ctx, counted, []int{0, 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanSemijoinUp && s.Steps > pollEvery+kids {
			t.Fatalf("%d lookups after the deadline, want at most %d", s.Steps, pollEvery+kids)
		}
	}
}

// expiresAfterFirstLook is a context whose deadline passes right after its
// first Err.
type expiresAfterFirstLook struct {
	context.Context
	looked bool
}

func (c *expiresAfterFirstLook) Err() error {
	if c.looked {
		return context.DeadlineExceeded
	}
	c.looked = true
	return nil
}
