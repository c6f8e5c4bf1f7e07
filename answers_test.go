package hypertree

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertree/internal/cq"
	"hypertree/internal/gen"
	"hypertree/internal/hdeval"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// semijoinRef is the reference semijoin t ⋉ u: t's rows, in t's order,
// whose values on the shared variables occur in some row of u — a hash
// filter over the shared columns. With no shared variable it keeps all of t
// exactly when u is non-empty.
func semijoinRef(t, u *Table) *Table {
	var tc, uc []int
	for i, v := range t.Vars {
		if j := slices.Index(u.Vars, v); j >= 0 {
			tc, uc = append(tc, i), append(uc, j)
		}
	}
	key := func(row []Value, cols []int) string {
		k := make([]Value, len(cols))
		for i, c := range cols {
			k[i] = row[c]
		}
		return fmt.Sprint(k)
	}
	inU := map[string]bool{}
	for r := range u.Rows() {
		inU[key(u.Row(r), uc)] = true
	}
	var data []Value
	kept := 0
	for r := range t.Rows() {
		if inU[key(t.Row(r), tc)] {
			data = append(data, t.Row(r)...)
			kept++
		}
	}
	switch {
	case len(t.Vars) > 0:
		return relation.NewTableOf(t.Vars, data)
	case kept > 0:
		return relation.TrueTable() // NewTableOf needs a variable
	default:
		return relation.NewTable(nil)
	}
}

// reduceRef is Yannakakis' full reducer over an evaluator's columnar tree —
// the pass no execution runs any more, kept as the reference the cursor and
// the Boolean descent are held to: semijoins up, then down, each node
// re-encoded in its own column order. The filter keeps the sorted rows'
// order, so a reduced node is its encoding minus the rows no answer
// extends.
func reduceRef(root *yannakakis.Node) {
	semijoin := func(dst, src *yannakakis.Node) {
		dst.Enc = relation.NewColumnar(semijoinRef(dst.Enc.Table(), src.Enc.Table()), dst.Enc.Vars)
	}
	var up, down func(n *yannakakis.Node)
	up = func(n *yannakakis.Node) {
		for _, c := range n.Children {
			up(c)
			semijoin(n, c)
		}
	}
	down = func(n *yannakakis.Node) {
		for _, c := range n.Children {
			semijoin(c, n)
			down(c)
		}
	}
	up(root)
	down(root)
}

// checkCursor holds the answer cursor over the trees build returns to two
// references: the naive answer table, and the walk of the same tree after
// the full reducer (reduceRef) — the path the cursor replaced, whose row
// order every reply kept. Count must equal the naive row count, and for every prefix
// length k ∈ {0, 1, 10, all}, Next's first k rows followed by Materialize's
// rest must be the reduced walk, row for row. The Boolean descent — the
// cursor with an empty head — must be true exactly when the reduced root
// is non-empty, whatever the head.
func checkCursor(t *testing.T, leg string, build func() *yannakakis.Node, head []int, naive *Table) {
	t.Helper()
	ctx := context.Background()
	reduced := build()
	reduceRef(reduced)
	ra, err := yannakakis.NewAnswers(ctx, reduced, head)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ra.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Equal(naive) {
		t.Fatalf("%s: the reduced walk has %d answers, naive %d", leg, ref.Rows(), naive.Rows())
	}
	if b, err := yannakakis.NewAnswers(ctx, build(), nil); err != nil || (b.Count() > 0) != (reduced.Rows() > 0) {
		t.Fatalf("%s: Boolean cursor %v, %v; the reduced root holds %d rows", leg, b, err, reduced.Rows())
	}
	for _, k := range []int{0, 1, 10, naive.Rows()} {
		a, err := yannakakis.NewAnswers(ctx, build(), head)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count() != naive.Rows() {
			t.Fatalf("%s: Count = %d, naive has %d answers", leg, a.Count(), naive.Rows())
		}
		var rows [][]Value
		for i := 0; i < k; i++ {
			row, ok := a.Next()
			if !ok {
				break
			}
			rows = append(rows, slices.Clone(row))
		}
		rest, err := a.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		for i := range rest.Rows() {
			rows = append(rows, rest.Row(i))
		}
		if len(rows) != ref.Rows() {
			t.Fatalf("%s k=%d: %d rows, want %d", leg, k, len(rows), ref.Rows())
		}
		for i, row := range rows {
			if !slices.Equal(row, ref.Row(i)) {
				t.Fatalf("%s k=%d: row %d is %v, the reduced walk's %v", leg, k, i, row, ref.Row(i))
			}
		}
	}
}

// The cursor's proof obligation: over gen.KernelCases × k-decomp/ghd/fhd ×
// full, projected and Boolean heads × 1 and 4 workers, the count pass and
// the zero-skipping walk return exactly the naive answers, in the order of
// the reduced walk, Plan.Execute materialises that same order, and the
// Boolean descent agrees with the reducer. The
// adversarial acyclic shapes are checked where the evaluator lives, in
// internal/hdeval. Run under -race in CI.
func TestAnswersCursorEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(28))
	decomposers := map[string]CompileOption{
		"k-decomp": WithDecomposer(KDecomposer()),
		"ghd":      WithDecomposer(GreedyDecomposer()),
		"fhd":      WithDecomposer(FractionalDecomposer()),
	}
	for _, tc := range gen.KernelCases(2810, 16) {
		body := cq.NewQuery(nil, tc.Q.Atoms)
		all := make([]cq.Term, body.NumVars())
		for v := range all {
			all[v] = cq.Var(body.VarName(v))
		}
		heads := map[string]*Query{
			"full":      cq.NewQuery(&cq.Atom{Pred: "ans", Args: all}, body.Atoms),
			"projected": gen.WithRandomHead(rng, body),
			"boolean":   body,
		}
		for hname, q := range heads {
			naive, err := Compile(q, WithStrategy(StrategyNaive))
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Execute(ctx, tc.DB)
			if err != nil {
				t.Fatal(err)
			}
			for dname, dopt := range decomposers {
				for _, workers := range []int{1, 4} {
					leg := fmt.Sprintf("%s, %s head, %s, workers=%d", tc.Name, hname, dname, workers)
					plan, err := Compile(q, WithStrategy(StrategyHypertree), dopt, WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s: %v", leg, err)
					}
					build := func() *yannakakis.Node {
						root, err := plan.eval.Root(ctx, tc.DB, workers)
						if err != nil {
							t.Fatalf("%s: %v", leg, err)
						}
						return root
					}
					checkCursor(t, leg, build, plan.head, want)
					got, err := plan.Execute(ctx, tc.DB)
					if err != nil {
						t.Fatal(err)
					}
					ra, err := plan.Answers(ctx, tc.DB)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got.Rows() {
						if row, _ := ra.Next(); !slices.Equal(row, got.Row(i)) {
							t.Fatalf("%s: Execute's row %d is %v, the cursor's %v", leg, i, got.Row(i), row)
						}
					}
				}
			}
		}
	}
}

// Metamorphic check on the cursor: α-renaming the variables, reordering
// the body atoms and duplicating an atom describe the same answers, so none
// of them may change Count, nor the drained rows as a set (columns follow
// the head, whose order every variant keeps).
func TestAnswersCursorMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range gen.KernelCases(2811, 24) {
		src := tc.Q.String()
		renamed, err := gen.RenameQuery(src, 7)
		if err != nil {
			t.Fatal(err)
		}
		atoms := slices.Clone(tc.Q.Atoms)
		rng.Shuffle(len(atoms), func(i, j int) { atoms[i], atoms[j] = atoms[j], atoms[i] })
		variants := map[string]*Query{
			"renamed":    MustParseQuery(renamed),
			"reordered":  cq.NewQuery(tc.Q.Head, atoms),
			"duplicated": cq.NewQuery(tc.Q.Head, append(slices.Clone(tc.Q.Atoms), tc.Q.Atoms[rng.Intn(len(tc.Q.Atoms))])),
		}
		count, rows := drain(t, tc.Q, tc.DB)
		for name, q := range variants {
			c, r := drain(t, q, tc.DB)
			if c != count || !slices.Equal(r, rows) {
				t.Fatalf("%s, %s: %d answers (%d distinct rows), the original %d (%d)", tc.Name, name, c, len(r), count, len(rows))
			}
		}
	}
}

// drain compiles q, takes its cursor's Count and drains it, returning the
// rows rendered and sorted; the cursor must return Count distinct rows.
func drain(t *testing.T, q *Query, db *Database) (int, []string) {
	t.Helper()
	plan, err := Compile(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	a, err := plan.Answers(context.Background(), db)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var rows []string
	for row, ok := a.Next(); ok; row, ok = a.Next() {
		rows = append(rows, fmt.Sprint(row))
	}
	if a.Err() != nil {
		t.Fatal(a.Err())
	}
	slices.Sort(rows)
	if d := len(slices.Compact(slices.Clone(rows))); d != len(rows) || d != a.Count() {
		t.Fatalf("%s: %d rows drained, %d distinct, Count %d", q, len(rows), d, a.Count())
	}
	return a.Count(), rows
}

// The per-run folds at plan level. A root whose table keeps a variable the
// head drops is walked run by run over its leading head columns — a root
// scan leads with every head variable it holds — and a subtree below it
// that drops one is folded run by run of its key. Over gen.KernelCases ×
// random heads × k-decomp/ghd/fhd the answers must be naive's, each once,
// every root scan must lead with its head variables, and the cases must
// take both root kernels with a head prefix of length 0, partial and full,
// and fold below the root.
func TestGroupedFoldMatchesNaive(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(33))
	decomposers := map[string]CompileOption{
		"k-decomp": WithDecomposer(KDecomposer()),
		"ghd":      WithDecomposer(GreedyDecomposer()),
		"fhd":      WithDecomposer(FractionalDecomposer()),
	}
	seen := map[string]int{}
	for _, tc := range gen.KernelCases(3311, 42) {
		body := cq.NewQuery(nil, tc.Q.Atoms)
		for range 3 {
			q := gen.WithRandomHead(rng, body)
			want, err := hdeval.NaiveJoin(tc.DB, q)
			if err != nil {
				t.Fatal(err)
			}
			for dname, dopt := range decomposers {
				leg := fmt.Sprintf("%s, %s, %s", tc.Name, q.Head, dname)
				plan, err := Compile(q, WithStrategy(StrategyHypertree), dopt)
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				head := plan.head
				root := plan.eval.Nodes()[0]
				cols := root.Order[:root.NOut]
				k := 0
				for k < len(cols) && slices.Contains(head, cols[k]) {
					k++
				}
				if root.Kernel == "scan" && slices.ContainsFunc(cols[k:], func(v int) bool { return slices.Contains(head, v) }) {
					t.Fatalf("%s: root scan columns %v do not lead with the head variables %v", leg, cols, head)
				}
				if !slices.ContainsFunc(cols, func(v int) bool { return !slices.Contains(head, v) }) {
					k = -1 // a clean root: walked, not folded
				}
				tr := NewTrace()
				got, err := plan.Execute(ContextWithTrace(ctx, tr), tc.DB)
				if err != nil {
					t.Fatal(err)
				}
				rows := make([]string, got.Rows())
				for i := range rows {
					rows[i] = fmt.Sprint(got.Row(i))
				}
				slices.Sort(rows)
				if !got.Equal(want) || len(slices.Compact(rows)) != want.Rows() {
					t.Fatalf("%s: %d answers, naive %d", leg, got.Rows(), want.Rows())
				}
				switch {
				case k == 0:
					seen[root.Kernel+" prefix 0"]++
				case k > 0 && k < len(head):
					seen[root.Kernel+" prefix partial"]++
				case k == len(head):
					seen[root.Kernel+" prefix full"]++
				}
				for _, s := range tr.Spans() {
					if s.Name == obs.SpanEnumerate && s.Steps > 0 {
						seen["below the root"]++
					}
				}
			}
		}
	}
	for _, want := range []string{"scan prefix 0", "scan prefix partial", "scan prefix full",
		"leapfrog prefix 0", "leapfrog prefix partial", "leapfrog prefix full", "below the root"} {
		if seen[want] == 0 {
			t.Errorf("no case folded with a %s (seen: %v)", want, seen)
		}
	}
}

// A 5-leaf star of degree 300 has 300⁵ ≈ 2.4e12 answers. Execute must not
// size its answer buffer by Count — Count × width values is an allocation
// no machine meets, and the runtime dies on it rather than fail — but list
// into a bounded buffer until the walk's next poll sees the deadline.
func TestExecuteWideStarStopsAtDeadline(t *testing.T) {
	const leaves, degree = 5, 300
	db := NewDatabase()
	var atoms, head []string
	for i := 1; i <= leaves; i++ {
		for j := range degree {
			db.AddFact(fmt.Sprint("r", i), "c", fmt.Sprint("x", j))
		}
		atoms = append(atoms, fmt.Sprintf("r%d(C, X%d)", i, i))
		head = append(head, fmt.Sprint("X", i))
	}
	plan, err := Compile(MustParseQuery(fmt.Sprintf("ans(C, %s) :- %s.", strings.Join(head, ", "), strings.Join(atoms, ", "))))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := plan.Execute(ctx, db); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Execute = %v, want context.DeadlineExceeded", err)
	}
}
