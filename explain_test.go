package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/gen"
	"hypertree/internal/obs"
	"hypertree/internal/yannakakis"
)

// explainedNodes returns Explain's node lines, indent kept and the cover=
// and fw= details cut.
func explainedNodes(report string) []string {
	var lines []string
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(strings.TrimLeft(l, " "), "#") {
			l, _, _ = strings.Cut(l, " cover=")
			lines = append(lines, l)
		}
	}
	return lines
}

// executedNodes executes plan against db under a fresh trace and renders,
// in preorder, the node lines Explain must print for what ran: ID, label,
// kernel, order= and est= from each exec/node span, the depth and keep=
// from the node tables the same plan builds. keep= names the table's
// columns where they are fewer than χ's. It returns the execution's trace
// too, for ExplainAnalyze.
func executedNodes(t *testing.T, plan *Plan, db *Database) ([]string, *Trace) {
	t.Helper()
	ctx := context.Background()
	tr := NewTrace()
	if _, err := plan.Execute(ContextWithTrace(ctx, tr), db); err != nil {
		t.Fatal(err)
	}
	spans := map[int]obs.Span{}
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanNode {
			spans[s.Node] = s
		}
	}
	root, err := plan.eval.Root(ctx, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(n *yannakakis.Node, depth int)
	walk = func(n *yannakakis.Node, depth int) {
		s, ok := spans[len(lines)]
		if !ok {
			t.Fatalf("node %d of %s ran without a span", len(lines), plan)
		}
		label, order, _ := strings.Cut(s.Label, " order=")
		line := fmt.Sprintf("%s#%d %s kernel=%s", strings.Repeat("  ", depth+1), s.Node, label, s.Kernel)
		if order != "" {
			line += " order=" + order
		}
		chi, _, _ := strings.Cut(strings.TrimPrefix(label, "χ{"), "}")
		if cols := n.Vars(); len(cols) < len(strings.Split(chi, ",")) {
			names := make([]string, len(cols))
			for i, v := range cols {
				names[i] = plan.Query().VarName(v)
			}
			line += " keep={" + strings.Join(names, ",") + "}"
		}
		if s.EstRows > 0 {
			line += fmt.Sprintf(" est=%.4g", s.EstRows)
		}
		lines = append(lines, line)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if len(lines) != len(spans) {
		t.Fatalf("%s: %d node spans for %d node tables", plan, len(spans), len(lines))
	}
	return lines, tr
}

// Explain describes the plan that runs: its node lines are, one for one and
// in preorder, the nodes an execution builds — the ID, label, kernel, order=
// and est= their exec/node spans carry, and the columns their tables keep —
// Lemma 4.4's completion scans included; EXPLAIN ANALYZE prints the same
// lines. Over gen.KernelCases × k-decomp/ghd/fhd/auto × Boolean/headed ×
// with and without statistics.
func TestExplainNodesAreExecutedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	engines := map[string]CompileOption{
		"k-decomp": WithDecomposer(KDecomposer()),
		"ghd":      WithDecomposer(GreedyDecomposer()),
		"fhd":      WithDecomposer(FractionalDecomposer()),
		"auto":     WithAutoStrategy(),
	}
	completions := 0
	for _, tc := range gen.KernelCases(2929, 16) {
		body := cq.NewQuery(nil, tc.Q.Atoms)
		for _, q := range []*Query{body, gen.WithRandomHead(rng, body)} {
			for name, engine := range engines {
				for _, withStats := range []bool{false, true} {
					opts := []CompileOption{WithStrategy(StrategyHypertree), engine}
					if withStats {
						opts = append(opts, WithStats(tc.DB))
					}
					plan, err := Compile(q, opts...)
					if err != nil {
						t.Fatalf("%s %s: %v", q, name, err)
					}
					if plan.Decomposition().Root == nil {
						continue
					}
					want, tr := executedNodes(t, plan, tc.DB)
					got := explainedNodes(plan.Explain())
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s %s stats=%v: Explain's nodes\n%s\nare not the executed nodes\n%s",
							q, name, withStats, strings.Join(got, "\n"), strings.Join(want, "\n"))
					}
					if analyzed := explainedNodes(plan.ExplainAnalyze(tr)); len(analyzed) != len(want) {
						t.Fatalf("%s %s: EXPLAIN ANALYZE shows %d nodes, %d ran", q, name, len(analyzed), len(want))
					} else {
						for i, l := range analyzed {
							if !strings.HasPrefix(l, want[i]+"  actual=") {
								t.Fatalf("%s %s: EXPLAIN ANALYZE line %q is not %q plus its actuals", q, name, l, want[i])
							}
						}
					}
					completions += len(want) - plan.Decomposition().NumNodes()
				}
			}
		}
	}
	if completions == 0 {
		t.Fatal("no plan ran a completion scan")
	}

	// The Boolean 4-clique: one bag joining two of the six relations, and
	// the four others as the completion scans that filter it.
	q := gen.CliqueBinary(4)
	db := gen.RegularDatabase(rand.New(rand.NewSource(4)), q, 300, 60)
	plan, err := Compile(q, WithAutoStrategy(), WithStats(db))
	if err != nil {
		t.Fatal(err)
	}
	report := plan.Explain()
	if n := explainedNodes(report); len(n) != 5 || strings.Count(report, "kernel=leapfrog") != 1 || strings.Count(report, "kernel=scan") != 4 {
		t.Fatalf("the 4-clique's Explain must show its bag and four completion scans:\n%s", report)
	}
}
