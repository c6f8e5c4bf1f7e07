package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/gen"
	"hypertree/internal/stats"
)

// The central safety property of cost-based planning: statistics choose
// among plans and join orders, never answers. Execute / ExecuteBoolean with
// WithStats must agree with the width-only compile of the same query, on
// random acyclic and cyclic instances, across the exact k-decomp, greedy GHD
// and fractional decomposers and the auto race, over databases with skewed
// relation sizes (where the cost model actually reorders things).
func TestPropertyStatsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(525))
	ctx := context.Background()
	acyclicSeen, cyclicSeen := 0, 0
	for trial := 0; trial < 18; trial++ {
		var q *Query
		switch trial % 4 {
		case 0:
			q = gen.Cycle(3 + rng.Intn(4)) // cyclic
		case 1:
			q = gen.Path(2 + rng.Intn(4)) // acyclic
		case 2:
			q = gen.RandomCSP(rng, 4+rng.Intn(3), 7+rng.Intn(3), 3) // cyclic
		default:
			q = gen.RandomQuery(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
		}
		if IsAcyclic(q) {
			acyclicSeen++
		} else {
			cyclicSeen++
		}
		// skewed sizes so the cost model genuinely reorders joins and covers
		db := gen.SkewedSizeDatabase(rng, q, 8+rng.Intn(40), 2+rng.Intn(6), 1+2*rng.Float64())

		for name, opts := range map[string][]CompileOption{
			"k-decomp": {WithStrategy(StrategyHypertree), WithDecomposer(KDecomposer())},
			"ghd":      {WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())},
			"fhd":      {WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer())},
			"auto":     {WithStrategy(StrategyAuto), WithAutoStrategy()},
		} {
			plain, err := Compile(q, opts...)
			if err != nil {
				t.Fatalf("trial %d %s compile: %v", trial, name, err)
			}
			costed, err := Compile(q, append(opts[:len(opts):len(opts)], WithStats(db))...)
			if err != nil {
				t.Fatalf("trial %d %s compile with stats: %v", trial, name, err)
			}
			want, err := plain.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			got, err := costed.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute with stats: %v", trial, name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: stats changed answers: %d rows vs %d\nquery %s\nwidth-only %s\ncost-based %s",
					trial, name, got.Rows(), want.Rows(), q, plain.Explain(), costed.Explain())
			}
			wantBool, err := plain.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s boolean: %v", trial, name, err)
			}
			gotBool, err := costed.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s boolean with stats: %v", trial, name, err)
			}
			if gotBool != wantBool {
				t.Fatalf("trial %d %s: stats changed the Boolean verdict", trial, name)
			}
		}
	}
	if acyclicSeen == 0 || cyclicSeen == 0 {
		t.Fatalf("workload mix degenerate: %d acyclic, %d cyclic", acyclicSeen, cyclicSeen)
	}
}

// The same property under statistics that are simply wrong: the snapshot is
// collected from a decoy database over the same relations with unrelated
// sizes and domains, so cardinalities and distinct counts are random with
// respect to the data executed on. The distinct counts steer covers, the
// race and the child order; none of it may change an answer.
func TestPropertyStatsEquivalenceRandomCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1525))
	ctx := context.Background()
	for trial := 0; trial < 18; trial++ {
		var q *Query
		switch trial % 3 {
		case 0:
			q = gen.Cycle(4 + rng.Intn(4))
		case 1:
			q = gen.RandomCSP(rng, 4+rng.Intn(3), 7+rng.Intn(3), 3)
		default:
			q = gen.WithRandomHead(rng, gen.RandomQuery(rng, 3+rng.Intn(4), 2+rng.Intn(4), 1+rng.Intn(3)))
		}
		db := gen.SkewedSizeDatabase(rng, q, 8+rng.Intn(40), 2+rng.Intn(6), 1+2*rng.Float64())
		decoy := gen.SkewedSizeDatabase(rng, q, 1+rng.Intn(5000), 1+rng.Intn(300), 3*rng.Float64())
		st := CollectStatsSampled(decoy, 64)

		for name, opts := range map[string][]CompileOption{
			"k-decomp": {WithStrategy(StrategyHypertree), WithDecomposer(KDecomposer())},
			"ghd":      {WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())},
			"fhd":      {WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer())},
			"auto":     {WithStrategy(StrategyHypertree), WithAutoStrategy()},
		} {
			plain, err := Compile(q, opts...)
			if err != nil {
				t.Fatalf("trial %d %s compile: %v", trial, name, err)
			}
			costed, err := Compile(q, append(opts[:len(opts):len(opts)], WithCostModel(st))...)
			if err != nil {
				t.Fatalf("trial %d %s compile with stats: %v", trial, name, err)
			}
			if costed.FractionalWidth() > plain.FractionalWidth()+1e-6 && name != "auto" {
				t.Fatalf("trial %d %s: statistics worsened the width %v → %v", trial, name, plain.FractionalWidth(), costed.FractionalWidth())
			}
			want, err := plain.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			got, err := costed.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute with stats: %v", trial, name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s: stats changed answers: %d rows vs %d\nquery %s\nwidth-only %s\ncost-based %s",
					trial, name, got.Rows(), want.Rows(), q, plain.Explain(), costed.Explain())
			}
		}
	}
}

// Non-Boolean heads must survive cost-based reordering too: the join
// ordering changes the intermediate tables, and the head projection is
// where a wrong column convention would surface.
func TestStatsEquivalenceWithHeads(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	for _, src := range []string{
		`ans(X, Z) :- r(X, Y), s(Y, Z), t(Z, X).`,
		`ans(A, C) :- e1(A, B), e2(B, C), e3(C, D), e4(D, A), cheap(A, B).`,
		`ans(X) :- r(X, Y), s(Y, Z).`,
	} {
		q := MustParseQuery(src)
		db := gen.SkewedSizeDatabase(rng, q, 60, 4, 2)
		for _, opts := range [][]CompileOption{
			{WithStrategy(StrategyAuto), WithAutoStrategy()},
			{WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())},
		} {
			plain, err := Compile(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			costed, err := Compile(q, append(opts[:len(opts):len(opts)], WithStats(db))...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Execute(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := costed.Execute(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: stats changed answers (%d vs %d rows)", src, got.Rows(), want.Rows())
			}
		}
	}
}

// On the cost-separation workload the cost-based auto race must pick a
// same-width plan of strictly lower estimated cost than the width-only
// race, and both must answer alike (BenchmarkE25CostBased times the two
// plans).
func TestCostBasedAutoBeatsWidthOnly(t *testing.T) {
	q := gen.CostSeparationQuery()
	db := gen.SkewedSizeDatabase(rand.New(rand.NewSource(25)), q, 2000, 250, 3)
	st := CollectStats(db)
	widthPlan, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy(), WithStepBudget(200_000))
	if err != nil {
		t.Fatal(err)
	}
	costPlan, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy(), WithStepBudget(200_000), WithCostModel(st))
	if err != nil {
		t.Fatal(err)
	}
	if widthPlan.Width() != costPlan.Width() {
		t.Fatalf("widths diverged: %d vs %d", widthPlan.Width(), costPlan.Width())
	}
	wCost := EstimateCost(q, widthPlan.Decomposition(), st)
	cCost := EstimateCost(q, costPlan.Decomposition(), st)
	if !(cCost < wCost) {
		t.Fatalf("cost-based plan estimated at %g, width-only at %g", cCost, wCost)
	}
	if costPlan.EstimatedCost() <= 0 {
		t.Fatal("cost-based plan reports no EstimatedCost")
	}
	if widthPlan.EstimatedCost() != 0 {
		t.Fatalf("width-only plan reports EstimatedCost %g, want 0", widthPlan.EstimatedCost())
	}
	if widthPlan.PlanStats() != nil || costPlan.PlanStats() != st {
		t.Fatal("PlanStats must echo exactly the compile-time snapshot")
	}
	// Plant three complete cycles — random tuples almost never close C4 —
	// so the two plans must agree on a non-empty answer.
	for i := 0; i < 3; i++ {
		w := func(j int) string { return fmt.Sprintf("w%d_%d", i, j) }
		db.AddFact("big", w(1), w(2))
		db.AddFact("small", w(1), w(2))
		db.AddFact("c2", w(2), w(3))
		db.AddFact("c3", w(3), w(4))
		db.AddFact("c4", w(4), w(1))
	}
	ctx := context.Background()
	widthAns, err := widthPlan.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	costAns, err := costPlan.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if widthAns.Empty() || !widthAns.Equal(costAns) {
		t.Fatalf("answers diverged: width-only %d rows, cost-based %d rows", widthAns.Rows(), costAns.Rows())
	}
}

func TestStatsOptionValidation(t *testing.T) {
	q := MustParseQuery(`r(X, Y), s(Y, Z), t(Z, X).`)
	if _, err := Compile(q, WithStats(nil)); err == nil {
		t.Error("WithStats(nil) accepted")
	}
	if _, err := Compile(q, WithCostModel(nil)); err == nil {
		t.Error("WithCostModel(nil) accepted")
	}
	// WithCostModel wins over WithStats
	db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, 10, 4)
	st := CollectStats(db)
	other := NewDatabase()
	p, err := Compile(q, WithStrategy(StrategyHypertree), WithStats(other), WithCostModel(st))
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanStats() != st {
		t.Error("WithCostModel did not take precedence over WithStats")
	}
}

func TestExplainReports(t *testing.T) {
	q := MustParseQuery(`r(X, Y), s(Y, Z), t(Z, X).`)
	db := gen.RandomDatabase(rand.New(rand.NewSource(2)), q, 12, 4)

	plain, err := Compile(q, WithStrategy(StrategyHypertree))
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.Explain(); !strings.Contains(got, "width-only") || !strings.Contains(got, "λ{") {
		t.Errorf("width-only Explain:\n%s", got)
	}

	costed, err := Compile(q, WithStrategy(StrategyHypertree), WithStats(db))
	if err != nil {
		t.Fatal(err)
	}
	got := costed.Explain()
	for _, want := range []string{"cost-based", "est=", "rows]", "estimated total cost"} {
		if !strings.Contains(got, want) {
			t.Errorf("cost-based Explain misses %q:\n%s", want, got)
		}
	}

	// fractional plans annotate λ weights
	frac, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer()), WithStats(db))
	if err != nil {
		t.Fatal(err)
	}
	if got := frac.Explain(); !strings.Contains(got, "fw=") || !strings.Contains(got, "·") {
		t.Errorf("fractional Explain misses weights:\n%s", got)
	}

	// strategies without a decomposition still explain themselves
	naive, err := Compile(q, WithStrategy(StrategyNaive))
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.Explain(); !strings.Contains(got, "no decomposition") {
		t.Errorf("naive Explain:\n%s", got)
	}
	acyc, err := Compile(MustParseQuery(`r(X, Y), s(Y, Z).`), WithStrategy(StrategyAcyclic))
	if err != nil {
		t.Fatal(err)
	}
	if got := acyc.Explain(); !strings.Contains(got, "Yannakakis") {
		t.Errorf("acyclic Explain:\n%s", got)
	}
}

// Plans compiled under different statistics snapshots must occupy distinct
// cache slots: the snapshot fingerprint participates in the key. It is
// taken on the pricing grid, so a drift that moves no price keeps the slot.
func TestPlanCacheKeysOnStats(t *testing.T) {
	ctx := context.Background()
	q := gen.CostSeparationQuery()
	db := gen.SkewedSizeDatabase(rand.New(rand.NewSource(3)), q, 200, 30, 2)
	st := CollectStats(db)

	cache := NewPlanCache(8)
	base := []CompileOption{WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())}
	if _, err := cache.Compile(ctx, q, base...); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Compile(ctx, q, append(base[:2:2], WithCostModel(st))...); err != nil {
		t.Fatal(err)
	}
	if m := cache.Metrics(); m.Hits != 0 || m.Misses != 2 {
		t.Fatalf("width-only and cost-based compiles shared a slot: %+v", m)
	}
	// same snapshot again: a hit
	if _, err := cache.Compile(ctx, q, append(base[:2:2], WithCostModel(st))...); err != nil {
		t.Fatal(err)
	}
	if m := cache.Metrics(); m.Hits != 1 {
		t.Fatalf("identical snapshot missed: %+v", m)
	}
	// a drift inside one grid cell (184 → 185 rows, 30 → 31 distinct
	// values per column): the same prices, so the same fingerprint and slot
	db.AddFact("big", "zz0", "zz1")
	st2 := CollectStats(db)
	if st2.Rows("big") == st.Rows("big") || st2.Fingerprint() != st.Fingerprint() {
		t.Fatalf("setup: %v → %v should stay inside one grid cell", st, st2)
	}
	plan, err := cache.Compile(ctx, q, append(base[:2:2], WithCostModel(st2))...)
	if err != nil {
		t.Fatal(err)
	}
	if m := cache.Metrics(); m.Hits != 2 || m.Misses != 2 || plan.PlanStats() != st {
		t.Fatalf("drift inside a grid cell missed: %+v", m)
	}
	// a drift across a grid step: a new fingerprint and a slot of its own,
	// next to the old one
	st3 := st2
	for i := 1; st3.Fingerprint() == st.Fingerprint(); i++ {
		db.AddFact("big", fmt.Sprintf("zz%d", i), fmt.Sprintf("zz%d", i+1))
		st3 = CollectStats(db)
	}
	for i, want := range []struct {
		st           *Stats
		hits, misses uint64
	}{{st3, 2, 3}, {st3, 3, 3}, {st, 4, 3}} {
		plan, err := cache.Compile(ctx, q, append(base[:2:2], WithCostModel(want.st))...)
		if err != nil {
			t.Fatal(err)
		}
		if m := cache.Metrics(); m.Hits != want.hits || m.Misses != want.misses || plan.PlanStats() != want.st {
			t.Fatalf("compile %d after a drift across a grid step: %+v, want %d hits / %d misses", i, m, want.hits, want.misses)
		}
	}
}

// Three compiles of one query are one miss and two hits, and the cache
// holds one plan.
func TestPlanCacheMetricsCountsHitsAndMisses(t *testing.T) {
	ctx := context.Background()
	q := MustParseQuery(`r(X, Y), s(Y, Z), t(Z, X).`)
	cache := NewPlanCache(4)
	for i := 0; i < 3; i++ {
		if _, err := cache.Compile(ctx, q, WithStrategy(StrategyHypertree)); err != nil {
			t.Fatal(err)
		}
	}
	if m := cache.Metrics(); m.Hits != 2 || m.Misses != 1 || m.Len != 1 {
		t.Fatalf("metrics = %+v, want 2 hits / 1 miss / 1 entry", m)
	}
}

// Two snapshots whose counts differ but fall in the same grid cells share a
// fingerprint and price every plan alike, so they compile every family to
// the same plan: the same Explain() but for the stats{…} line, which shows
// the exact counts.
func TestSameGridCellsCompileTheSamePlan(t *testing.T) {
	dropStats := func(explain string) string {
		var keep []string
		for _, l := range strings.Split(explain, "\n") {
			if !strings.HasPrefix(strings.TrimSpace(l), "stats{") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	for name, q := range gen.Families() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			db := gen.SkewedSizeDatabase(rng, q, 300, 40, 1)
			drifted := driftWithinGrid(rng, db)
			st1, st2 := CollectStats(db), CollectStats(drifted)
			moved := false
			for _, rel := range st1.RelationNames() {
				moved = moved || st1.Rows(rel) != st2.Rows(rel)
			}
			if !moved || st1.String() == st2.String() {
				t.Fatalf("setup: no count moved (%v)", st1)
			}
			if st1.Fingerprint() != st2.Fingerprint() {
				t.Fatalf("%v and %v share every grid cell but not the fingerprint", st1, st2)
			}
			var explains [2]string
			for i, st := range []*Stats{st1, st2} {
				plan, err := Compile(q, WithAutoStrategy(), WithStepBudget(2_000_000), WithCostModel(st))
				if err != nil {
					t.Fatal(err)
				}
				explains[i] = dropStats(plan.Explain())
			}
			if explains[0] != explains[1] {
				t.Fatalf("same grid cells, different plans:\n%s\n---\n%s", explains[0], explains[1])
			}
		})
	}
}

// driftWithinGrid returns a copy of db whose relations grow as far as their
// counts stay in their grid cells: a unary relation by new values (its rows
// and distinct count move together), a wider one by new combinations of the
// values its columns already hold (its distinct counts stay).
func driftWithinGrid(rng *rand.Rand, db *Database) *Database {
	out := db.Clone()
	for _, name := range out.RelationNames() {
		r := out.Relation(name)
		top := r.Rows()
		for stats.Grid(top+1) == stats.Grid(r.Rows()) {
			top++
		}
		tuple := make([]Value, r.Arity)
		for try := 0; r.Rows() < top && r.Arity > 0 && try < 100*top; try++ {
			for c := range tuple {
				if r.Arity == 1 {
					tuple[c] = out.Intern(fmt.Sprintf("drift%d", try))
				} else {
					tuple[c] = r.Row(rng.Intn(r.Rows()))[c]
				}
			}
			if !r.Has(tuple...) {
				r.Add(tuple...)
			}
		}
	}
	return out
}
