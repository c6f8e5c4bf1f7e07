package hypertree

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/gen"
	"hypertree/internal/obs"
)

// ExecuteBoolean is the answer cursor with an empty head: on every
// KernelCases body, Boolean and under a random head, through every
// decomposer and the auto race with 1 and 4 workers, through the acyclic
// strategy where the body is acyclic, and through the naive strategy, it
// agrees with Answers(…).Count() > 0 and with the naive join's emptiness.
// Traced, it records what a Boolean execution always has: exec, exec/bind,
// exec/node and exec/semijoin/up where node tables are built — no walk, so
// no exec/enumerate — and exec alone under the naive strategy, with the
// exec span's Rows 1 when the query holds and 0 otherwise. Run under -race
// in CI.
func TestBooleanIsTheEmptyHeadCursor(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	evaluated := []string{obs.SpanExec, obs.SpanBind, obs.SpanNode, obs.SpanSemijoinUp}
	verdicts := map[bool]int{}
	for _, tc := range gen.KernelCases(4242, 18) {
		body := cq.NewQuery(nil, tc.Q.Atoms)
		for _, q := range []*Query{body, gen.WithRandomHead(rng, body)} {
			naive, err := Compile(q, WithStrategy(StrategyNaive))
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Execute(ctx, tc.DB)
			if err != nil {
				t.Fatal(err)
			}
			verdicts[!want.Empty()]++
			legs := map[string][]CompileOption{
				"naive": {WithStrategy(StrategyNaive)},
			}
			if !tc.Cyclic {
				legs["acyclic"] = []CompileOption{WithStrategy(StrategyAcyclic)}
			}
			for _, workers := range []int{1, 4} {
				for name, engine := range map[string]CompileOption{
					"k-decomp": WithDecomposer(KDecomposer()),
					"ghd":      WithDecomposer(GreedyDecomposer()),
					"fhd":      WithDecomposer(FractionalDecomposer()),
					"auto":     WithAutoStrategy(),
				} {
					legs[fmt.Sprintf("%s workers=%d", name, workers)] = []CompileOption{WithStrategy(StrategyHypertree), engine, WithWorkers(workers)}
				}
			}
			for name, opts := range legs {
				leg := fmt.Sprintf("%s %s", q, name)
				plan, err := Compile(q, opts...)
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				a, err := plan.Answers(ctx, tc.DB)
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				a.Close()
				tr := NewTrace()
				got, err := plan.ExecuteBoolean(ContextWithTrace(ctx, tr), tc.DB)
				if err != nil {
					t.Fatalf("%s: %v", leg, err)
				}
				if got != !want.Empty() || (a.Count() > 0) != got {
					t.Fatalf("%s: ExecuteBoolean %v, Answers counts %d, the naive join holds %d rows", leg, got, a.Count(), want.Rows())
				}
				names := spanNames(tr)
				wantNames := evaluated
				if plan.Strategy() == StrategyNaive {
					wantNames = []string{obs.SpanExec}
				}
				if got := slices.Sorted(maps.Keys(names)); !slices.Equal(got, slices.Sorted(slices.Values(wantNames))) {
					t.Fatalf("%s: a traced ExecuteBoolean recorded %v, want exactly %v", leg, got, wantNames)
				}
				if names[obs.SpanExec] != 1 || names[obs.SpanSemijoinUp] > 1 {
					t.Fatalf("%s: %v: want one execution and at most one descent", leg, names)
				}
				for _, s := range tr.Spans() {
					if s.Name == obs.SpanExec && s.Rows != map[bool]int64{false: 0, true: 1}[got] {
						t.Fatalf("%s: the exec span's Rows is %d on a %v query", leg, s.Rows, got)
					}
				}
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("degenerate verdict mix: %v", verdicts)
	}
}

// ExplainAnalyze reports the trace it is handed, and only that: a nil
// trace, or one holding a compile but no execution, gets Explain and the
// hint; two traces over one cached plan each report their own execution;
// a trace holding two executions reports the latest.
func TestExplainAnalyzeReportsItsTrace(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	q := gen.CostSeparationQuery()
	big := gen.SkewedSizeDatabase(rng, q, 400, 60, 1.1)
	small := gen.SkewedSizeDatabase(rng, q, 40, 60, 1.1)
	cache := NewPlanCache(4)
	compiled := NewTrace()
	plan, err := cache.Compile(ContextWithTrace(ctx, compiled), q, WithAutoStrategy(), WithStats(big))
	if err != nil {
		t.Fatal(err)
	}
	if names := spanNames(compiled); names[obs.SpanCompile] == 0 || names[obs.SpanRace] == 0 {
		t.Fatalf("compile trace missing compile/race spans: %v", names)
	}
	for _, tr := range []*Trace{nil, compiled} {
		if got := plan.ExplainAnalyze(tr); !strings.HasPrefix(got, plan.Explain()) || !strings.Contains(got, "no traced execution") {
			t.Fatalf("ExplainAnalyze without an execution = %q", got)
		}
	}

	run := func(p *Plan, tr *Trace, db *Database) {
		t.Helper()
		if _, err := p.Execute(ContextWithTrace(ctx, tr), db); err != nil {
			t.Fatal(err)
		}
	}
	actual := regexp.MustCompile(`actual=\d+|bind: \d+ relations fetched, \d+ from|semijoin up: \d+ steps`)
	bindLine := regexp.MustCompile(`^bind: (\d+) relations fetched, \d+ from$`)
	again, err := cache.Compile(ctx, q, WithAutoStrategy(), WithStats(big))
	if err != nil {
		t.Fatal(err)
	}
	if again != plan {
		t.Fatal("the second compile missed the plan cache")
	}
	onBig, onSmall := NewTrace(), NewTrace()
	run(plan, onBig, big)
	run(again, onSmall, small)
	bigReport, smallReport := plan.ExplainAnalyze(onBig), again.ExplainAnalyze(onSmall)
	for _, report := range []string{bigReport, smallReport} {
		for _, want := range []string{"analyze:", "est=", "actual=", "q-err="} {
			if !strings.Contains(report, want) {
				t.Fatalf("ExplainAnalyze missing %q:\n%s", want, report)
			}
		}
		if strings.Contains(report, "latest of") {
			t.Fatalf("one execution per trace, yet:\n%s", report)
		}
	}
	bigActuals, smallActuals := actual.FindAllString(bigReport, -1), actual.FindAllString(smallReport, -1)
	if slices.Equal(bigActuals, smallActuals) {
		t.Fatalf("the two databases give the same node actuals %v: the test cannot tell the traces apart", bigActuals)
	}

	// Encodings belong to the database: small has bound every relation
	// once already, so the latest execution takes each from the cache.
	warmActuals := slices.Clone(smallActuals)
	for i, a := range warmActuals {
		if m := bindLine.FindStringSubmatch(a); m != nil {
			warmActuals[i] = "bind: " + m[1] + " relations fetched, " + m[1] + " from"
		}
	}
	if slices.Equal(warmActuals, smallActuals) {
		t.Fatalf("the cold execution on small already took every bind from the cache: %v", smallActuals)
	}
	run(plan, compiled, big)
	run(plan, compiled, small)
	latest := plan.ExplainAnalyze(compiled)
	if !strings.Contains(latest, "(latest of 2 traced executions)") || !slices.Equal(actual.FindAllString(latest, -1), warmActuals) {
		t.Fatalf("two executions in one trace: want the latest's node actuals, binds and descent %v, got\n%s", warmActuals, latest)
	}
	if !strings.Contains(latest, "race entrant") {
		t.Fatalf("the report dropped the trace's compile spans:\n%s", latest)
	}
}
