package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/obs"
)

// These tests pin the plan and the estimate of the cost-based planner on
// the queries where same-width covers differ by orders of magnitude — the
// cycles — by counts, not clocks: which λ labels the auto race serves, how
// many rows every node materialises and how far the estimate sat from it.

// nodeSpans executes plan against db under a fresh trace and returns the
// node spans of that execution, and the trace for ExplainAnalyze.
func nodeSpans(t *testing.T, plan *Plan, db *Database) ([]obs.Span, *Trace) {
	t.Helper()
	tr := NewTrace()
	if _, err := plan.Execute(ContextWithTrace(context.Background(), tr), db); err != nil {
		t.Fatal(err)
	}
	var nodes []obs.Span
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanNode {
			nodes = append(nodes, s)
		}
	}
	if len(nodes) == 0 {
		t.Fatal("the execution recorded no node span")
	}
	return nodes, tr
}

// pairwiseDisjoint reports whether no two λ edges of n share a variable: a
// node whose table is a Cartesian product.
func pairwiseDisjoint(h *Hypergraph, n *DecompositionNode) bool {
	lam := n.Lambda.Elems()
	for i, e := range lam {
		for _, f := range lam[i+1:] {
			if h.Edge(e).Intersects(h.Edge(f)) {
				return false
			}
		}
	}
	return len(lam) > 1
}

// On the serving benchmark's cycle4 — four 500-row degree-regular relations
// over 200 constants — every width-2 cover of a bag is a join of ≈ 1 250
// rows or a product of 100 000, and the AGM product cannot tell them apart.
// The auto race under statistics must serve joins only, estimate them
// within 2×, and do so wherever the four atoms sit in the query: the
// engines' lowest-index tie-breaks must not decide.
func TestCycle4ServesJoinsNotProducts(t *testing.T) {
	atoms := []string{"r1(X1, X2)", "r2(X2, X3)", "r3(X3, X4)", "r4(X4, X1)"}
	db := gen.RegularDatabase(rand.New(rand.NewSource(1)), gen.Cycle(4), 500, 200)
	st := CollectStatsSampled(db, 0)
	var perm func(k int)
	perm = func(k int) {
		if k < len(atoms) {
			for i := k; i < len(atoms); i++ {
				atoms[k], atoms[i] = atoms[i], atoms[k]
				perm(k + 1)
				atoms[k], atoms[i] = atoms[i], atoms[k]
			}
			return
		}
		src := strings.Join(atoms, ", ")
		plan, err := Compile(MustParseQuery(src), WithAutoStrategy(), WithCostModel(st))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, n := range plan.Decomposition().Nodes() {
			if pairwiseDisjoint(plan.Decomposition().H, n) {
				t.Errorf("%s: the plan holds a product bag\n%s", src, plan.Explain())
			}
		}
		spans, tr := nodeSpans(t, plan, db)
		for _, s := range spans {
			if s.Rows > 2000 || QError(s.EstRows, s.Rows) > 2 {
				t.Errorf("%s: node %s materialised %d rows against an estimate of %.4g\n%s",
					src, s.Label, s.Rows, s.EstRows, plan.ExplainAnalyze(tr))
			}
		}
		full, err := Compile(MustParseQuery("ans(X1, X2, X3, X4) :- "+src), WithAutoStrategy(), WithCostModel(st))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		joinOrdersAreVarOrders(t, src, plan, full, spans)
	}
	perm(0)
}

// joinOrdersAreVarOrders checks every join node plan executed (spans) in
// the connectivity order: its span carries the physical plan node's order,
// that order never starts a new factor — a χ variable sharing no λ edge with
// the bound ones — while a later χ variable extends the join, and full, the
// same body compiled with a full head, binds the node in the same order.
// Keeping fewer columns cuts a join's output prefix; it must never reorder
// the join, because kept variables that no λ edge relates, bound first,
// enumerate their product.
func joinOrdersAreVarOrders(t *testing.T, src string, plan, full *Plan, spans []obs.Span) {
	t.Helper()
	h := plan.Decomposition().H
	fullOrders := map[string]string{}
	for _, n := range full.eval.Nodes() {
		fullOrders[n.Label] = n.OrderNames
	}
	nodes := plan.eval.Nodes()
	for _, s := range spans {
		n := nodes[s.Node]
		if n.Kernel != "leapfrog" {
			continue
		}
		if s.Label != n.Label+" order="+n.OrderNames || fullOrders[n.Label] != n.OrderNames {
			t.Errorf("%s: node %s ran as %q; the plan binds it in order %s, the full-head plan in %s",
				src, n.Label, s.Label, n.OrderNames, fullOrders[n.Label])
		}
		attached := func(v int, bound []int) bool {
			for _, e := range n.Lambda.Elems() {
				if h.Edge(e).Has(v) && slices.ContainsFunc(bound, h.Edge(e).Has) {
					return true
				}
			}
			return false
		}
		chi := n.Order[:n.Chi.Len()]
		for i := 1; i < len(chi); i++ {
			if !attached(chi[i], chi[:i]) && slices.ContainsFunc(chi[i+1:], func(v int) bool { return attached(v, chi[:i]) }) {
				t.Errorf("%s: node %s order %s starts a new factor at position %d", src, n.Label, n.OrderNames, i)
			}
		}
	}
}

// A Boolean bag keeps no column, so its join stops at the first witness:
// the one-bag fhd triangle lists one row, not every triangle, is estimated
// at one, and EXPLAIN ANALYZE shows what it dropped. With a full head the
// same bag keeps χ and lists them all.
func TestBooleanBagStopsAtFirstWitness(t *testing.T) {
	db := gen.RegularDatabase(rand.New(rand.NewSource(3)), gen.Cycle(3), 500, 50)
	body := "r1(X1, X2), r2(X2, X3), r3(X3, X1)"
	var triangles int64
	for _, head := range []string{"", "ans(X1, X2, X3) :- "} {
		plan, err := Compile(MustParseQuery(head+body), WithStrategy(StrategyHypertree),
			WithDecomposer(FractionalDecomposer()), WithStats(db))
		if err != nil {
			t.Fatal(err)
		}
		var bag obs.Span
		spans, tr := nodeSpans(t, plan, db)
		for _, s := range spans {
			if s.Kernel == "leapfrog" {
				bag = s
			}
		}
		report := plan.ExplainAnalyze(tr)
		switch {
		case bag.Kernel == "":
			t.Fatalf("%q: no leapfrog bag\n%s", head, report)
		case head == "" && (bag.Rows != 1 || bag.EstRows != 1 || !strings.Contains(report, "keep={}")):
			t.Errorf("Boolean triangle bag: %d rows, est %.4g, want 1 and 1 with keep={}\n%s", bag.Rows, bag.EstRows, report)
		case head != "" && strings.Contains(report, "keep="):
			t.Errorf("a full head keeps χ, yet the report shows a keep\n%s", report)
		}
		triangles = bag.Rows
	}
	if triangles < 2 {
		t.Fatalf("the database holds %d triangles; the test needs several", triangles)
	}
}

// On longer cycles a width-2 plan cannot avoid bags spanning two
// non-adjacent edges — n−4 of them, each the product of one relation with a
// column of the other, 500·200 rows — but the two bags at the ends of the
// chain can be joins, and every estimate can be right: the projection of a
// product onto χ is priced at what it holds, not at 500².
func TestLongerCyclesKeepProductsToTheUnavoidable(t *testing.T) {
	for n := 5; n <= 8; n++ {
		q := gen.Cycle(n)
		db := gen.RegularDatabase(rand.New(rand.NewSource(int64(n))), q, 500, 200)
		plan, err := Compile(q, WithAutoStrategy(), WithCostModel(CollectStatsSampled(db, 0)))
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		spans, tr := nodeSpans(t, plan, db)
		for _, s := range spans {
			total += s.Rows
			if QError(s.EstRows, s.Rows) > 2 {
				t.Errorf("cycle %d: node %s materialised %d rows against an estimate of %.4g", n, s.Label, s.Rows, s.EstRows)
			}
		}
		if limit := int64(n-4)*100_000 + 3_000; total > limit {
			t.Errorf("cycle %d: the plan materialises %d node rows, want ≤ %d\n%s", n, total, limit, plan.ExplainAnalyze(tr))
		}
	}
}

// The cycle plans the two tests above pin answer what the naive join
// answers: on cycles 4–8 over degree-regular relations, the statistics-
// served plan with every variable in the head returns the naive answer
// table.
func TestCyclePlansUnderStatisticsAgreeWithNaive(t *testing.T) {
	ctx := context.Background()
	for n := 4; n <= 8; n++ {
		vars := make([]string, n)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		q := MustParseQuery("ans(" + strings.Join(vars, ", ") + ") :- " + stripHead(gen.Cycle(n).String()))
		db := gen.RegularDatabase(rand.New(rand.NewSource(int64(30+n))), q, 500, 200)
		plan, err := Compile(q, WithAutoStrategy(), WithCostModel(CollectStatsSampled(db, 0)))
		if err != nil {
			t.Fatal(err)
		}
		naive, err := Compile(q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Execute(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.Execute(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Empty() || !got.Equal(want) {
			t.Errorf("cycle %d: the plan answers %d rows, the naive join %d", n, got.Rows(), want.Rows())
		}
	}
}

// Explain, EXPLAIN ANALYZE, the node records and the node spans all carry a
// leapfrog node's variable order, scans carry none, and the race spans
// print the estimate the ranking used.
func TestExplainCarriesVariableOrder(t *testing.T) {
	q := gen.Cycle(4)
	db := gen.RegularDatabase(rand.New(rand.NewSource(1)), q, 500, 200)
	tr := NewTrace()
	plan, err := CompileContext(ContextWithTrace(context.Background(), tr), q, WithAutoStrategy(), WithStats(db))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(); strings.Count(got, " order=") != 2 {
		t.Errorf("Explain must show the order of both join bags:\n%s", got)
	}
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanRace && !strings.Contains(s.Label, " cost=") {
			t.Errorf("race span %q carries no cost", s.Label)
		}
	}
	spans, etr := nodeSpans(t, plan, db)
	for _, s := range spans {
		if !strings.Contains(s.Label, " order=X") {
			t.Errorf("node span %q carries no variable order", s.Label)
		}
	}
	if got := plan.ExplainAnalyze(etr); strings.Count(got, "kernel=leapfrog order=") != 2 {
		t.Errorf("EXPLAIN ANALYZE must show the order of both join bags:\n%s", got)
	}
	acyclic, err := Compile(gen.Path(3), WithStats(db))
	if err != nil {
		t.Fatal(err)
	}
	spans, _ = nodeSpans(t, acyclic, db)
	for _, s := range spans {
		if strings.Contains(s.Label, "order=") {
			t.Errorf("scan span %q carries a variable order", s.Label)
		}
	}
}
