package hdeval

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// The connectivity order of a join bag is a choice of work, never of
// answers. Over random bags (random queries, random λ of 2–3 edges, random
// χ ⊆ var(λ), random parent), varOrder must return a χ permutation followed
// by a permutation of the existential variables, start with a χ variable of
// maximum λ-degree, and never start a new factor — a variable sharing no λ
// edge with the bound ones — while some unbound variable does share one;
// and the node table under it must equal, as a set, the table under the
// ascending-id order, through the kernel under a random parent. Through the
// evaluator at the root — Boolean, or headed over a random part of χ — the
// physical plan's root must bind in exactly varOrder's order whatever it
// keeps, its NOut must cut the shortest prefix of that order covering
// keep(root), and the table it builds must be that join projected onto the
// prefix.
func TestVarOrderConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ctx := context.Background()
	joins, narrowed := 0, 0
	for trial := 0; trial < 300; trial++ {
		q := gen.RandomQuery(rng, 3+rng.Intn(5), 3+rng.Intn(4), 1+rng.Intn(3))
		h, edgeToAtom := q.Hypergraph()
		if h.NumEdges() < 2 {
			continue
		}
		var lambda bitset.Set
		for want := 2 + rng.Intn(2); lambda.Len() < min(want, h.NumEdges()); {
			lambda.Add(rng.Intn(h.NumEdges()))
		}
		lamVars := h.Vars(lambda)
		var chi, parentChi bitset.Set
		lamVars.ForEach(func(v int) {
			if rng.Intn(3) > 0 {
				chi.Add(v)
			}
			if rng.Intn(2) == 0 {
				parentChi.Add(v)
			}
		})
		if chi.Empty() {
			chi.Add(lamVars.Min())
		}
		n := &decomp.Node{Chi: chi, Lambda: lambda}
		var parent *decomp.Node
		if rng.Intn(2) == 0 {
			parent = &decomp.Node{Chi: parentChi}
		}
		order, nChi := varOrder(h, n, parent)

		if got := bitset.FromSlice(order[:nChi]); nChi != chi.Len() || !got.Equal(chi) {
			t.Fatalf("trial %d: χ prefix %v of order %v is not χ %v", trial, order[:nChi], order, chi.Elems())
		}
		if got := bitset.FromSlice(order[nChi:]); len(order) != lamVars.Len() || !got.Equal(lamVars.Diff(chi)) {
			t.Fatalf("trial %d: suffix %v of order %v is not var(λ) ∖ χ", trial, order[nChi:], order)
		}
		degree := func(v int) (d int) {
			lambda.ForEach(func(e int) {
				if h.Edge(e).Has(v) {
					d++
				}
			})
			return d
		}
		chi.ForEach(func(v int) {
			if degree(v) > degree(order[0]) {
				t.Fatalf("trial %d: order %v starts at λ-degree %d, variable %d has %d", trial, order, degree(order[0]), v, degree(v))
			}
		})
		attached := func(v int, bound bitset.Set) bool {
			for _, e := range lambda.Elems() {
				if h.Edge(e).Has(v) && h.Edge(e).Intersects(bound) {
					return true
				}
			}
			return false
		}
		var bound bitset.Set
		bound.Add(order[0])
		for i := 1; i < nChi; i++ {
			if !attached(order[i], bound) && slices.ContainsFunc(order[i+1:nChi], func(v int) bool { return attached(v, bound) }) {
				t.Fatalf("trial %d: order %v starts a new factor at position %d while a later variable extends the join", trial, order, i)
			}
			bound.Add(order[i])
		}

		// the same table under the connectivity order and the ascending one
		db := gen.RandomDatabase(rng, q, 5+rng.Intn(40), 2+rng.Intn(4))
		var tables []*relation.Table
		for _, e := range lambda.Elems() {
			tab, err := yannakakis.BindAtom(db, q, edgeToAtom[e])
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tab)
		}
		join := func(order []int) *relation.Table {
			cols := make([]*relation.Columnar, len(tables))
			for i, tab := range tables {
				cols[i] = relation.NewColumnar(tab, relation.SubOrder(order, tab.Vars))
			}
			out, err := relation.LeapfrogJoinColumnar(context.Background(), cols, order, nChi, 0)
			if err != nil {
				t.Fatal(err)
			}
			return out.Table()
		}
		ascending := append(chi.Elems(), lamVars.Diff(chi).Elems()...)
		want := join(ascending)
		if got := join(order); !got.Equal(want) {
			t.Fatalf("trial %d: order %v gives %d rows, ascending order %d", trial, order, got.Rows(), want.Rows())
		}
		var head []cq.Term
		chi.ForEach(func(v int) {
			if rng.Intn(3) == 0 {
				head = append(head, cq.Var(q.VarName(v)))
			}
		})
		if head != nil {
			q = cq.NewQuery(&cq.Atom{Pred: "ans", Args: head}, q.Atoms)
		}
		e, err := NewEvaluator(q, &decomp.Decomposition{H: h, Root: n}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rootOrder, _ := varOrder(h, n, nil)
		nodes := e.Nodes()
		if got := nodes[0].Order; !slices.Equal(got, rootOrder) {
			t.Fatalf("trial %d: the evaluator binds the bag in order %v, varOrder says %v", trial, got, rootOrder)
		}
		keep := chi.Intersect(bitset.FromSlice(e.head))
		for _, c := range nodes[0].Children { // the completion's leaves
			keep.UnionInPlace(chi.Intersect(nodes[c].Chi))
		}
		nOut := 0
		for i, v := range rootOrder[:nChi] {
			if keep.Has(v) {
				nOut = i + 1
			}
		}
		if nOut < nChi {
			narrowed++
		}
		if nodes[0].NOut != nOut {
			t.Fatalf("trial %d: the root keeps %d columns of %v, keep %v needs %d", trial, nodes[0].NOut, rootOrder, keep.Elems(), nOut)
		}
		root, err := e.Root(ctx, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(root.Vars(), rootOrder[:nOut]) {
			t.Fatalf("trial %d: the root table's columns %v are not the prefix of %v covering keep %v", trial, root.Vars(), rootOrder, keep.Elems())
		}
		if ok, _ := yannakakis.GroundAtomsHold(db, q); ok && !root.Enc.Table().Equal(want.Project(root.Vars())) {
			t.Fatalf("trial %d: the evaluator's root table has %d rows, the ascending-order join projected onto %v %d",
				trial, root.Enc.Rows(), root.Vars(), want.Project(root.Vars()).Rows())
		}
		joins++
	}
	if joins < 200 || narrowed < joins/4 {
		t.Fatalf("only %d of 300 trials drew a join bag, %d of them one that drops χ columns", joins, narrowed)
	}
}
