package hypertree

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// Cross-decomposer answer equivalence: on random acyclic and cyclic queries
// the Greedy GHD plan returns exactly the answer table of the exact
// k-decomp plan (with the naive join as the semantics reference), and the
// greedy width never undercuts the exact hypertree width on these
// instances.
func TestPropertyGreedyGHDAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	ctx := context.Background()
	cyclicSeen, acyclicSeen := 0, 0
	for trial := 0; trial < 50; trial++ {
		// alternate unconstrained random queries (mostly acyclic at this
		// size) with cyclic-by-construction random CSPs
		var q *Query
		if trial%2 == 0 {
			q = gen.RandomQuery(rng, 2+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(3))
		} else {
			nv := 3 + rng.Intn(4)
			q = gen.RandomCSP(rng, nv, nv+rng.Intn(4), 3)
		}
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(20), 2+rng.Intn(5))
		if IsAcyclic(q) {
			acyclicSeen++
		} else {
			cyclicSeen++
		}

		exact, err := Compile(q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		greedy, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		naive, err := Compile(q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}

		// Width: the greedy result certifies ghw ≤ width, and ghw ≤ hw always;
		// a greedy width below the exact hw would mean the "exact" search is
		// not optimal for GHDs (fine) — but it can never be below 1, and on
		// binary/small-arity random queries it must not be below hw either
		// only when the decomposition is also a valid HD. The robust invariant
		// is: greedy width ≥ 1 and a valid GHD; and greedy width ≥ exact hw
		// whenever the greedy decomposition happens to satisfy condition 4.
		if greedy.Width() < 1 {
			t.Fatalf("trial %d: greedy width %d", trial, greedy.Width())
		}
		if err := ValidateGHD(greedy.Decomposition()); err != nil {
			t.Fatalf("trial %d: greedy plan decomposition invalid: %v", trial, err)
		}
		if ValidateHD(greedy.Decomposition()) == nil && greedy.Width() < exact.Width() {
			t.Fatalf("trial %d: greedy produced a valid HD of width %d below exact hw %d on %s",
				trial, greedy.Width(), exact.Width(), q)
		}

		ref, err := naive.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, p := range map[string]*Plan{"exact": exact, "greedy": greedy} {
			tab, err := p.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			if !tab.Equal(ref) {
				t.Fatalf("trial %d: %s plan disagrees with naive on %s", trial, name, q)
			}
		}
		exactBool, err := exact.ExecuteBoolean(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		greedyBool, err := greedy.ExecuteBoolean(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if exactBool != greedyBool {
			t.Fatalf("trial %d: Boolean disagreement on %s", trial, q)
		}
	}
	if cyclicSeen == 0 || acyclicSeen == 0 {
		t.Fatalf("corpus covered %d cyclic / %d acyclic queries; want both non-zero", cyclicSeen, acyclicSeen)
	}
}

// Greedy width ≥ exact hypertree width on the structured families, where
// the greedy output is also a valid HD (tree-decomposition-derived GHDs on
// these families satisfy condition 4), making hw a true lower bound.
func TestGreedyWidthNeverBeatsExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *Query
	}{
		{"cycle8", gen.Cycle(8)},
		{"grid33", gen.Grid(3, 3)},
		{"Q1", gen.Q1()},
		{"Q5", gen.Q5()},
		{"clique5", gen.CliqueBinary(5)},
		{"path7", gen.Path(7)},
		{"star6", gen.Star(6)},
	} {
		exact, err := Compile(tc.q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		greedy, err := Compile(tc.q, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
		if err != nil {
			t.Fatalf("%s greedy: %v", tc.name, err)
		}
		if greedy.Width() < exact.Width() {
			t.Errorf("%s: greedy width %d < exact hw %d — a heuristic cannot beat the exact optimum here",
				tc.name, greedy.Width(), exact.Width())
		}
		t.Logf("%s: exact hw=%d greedy ghw≤%d", tc.name, exact.Width(), greedy.Width())
	}
}

// Projections agree between greedy and exact plans too.
func TestPropertyGreedyGHDAgreesWithHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		base := gen.RandomQuery(rng, 3+rng.Intn(3), 2+rng.Intn(3), 2)
		v := base.VarName(rng.Intn(base.NumVars()))
		q := MustParseQuery(`ans(` + v + `) :- ` + stripHead(base.String()))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 3)

		exact, err := Compile(q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		greedy, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		te, err := exact.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tg, err := greedy.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !te.Equal(tg) {
			t.Fatalf("trial %d: projections disagree on %s", trial, q)
		}
	}
}

// The acceptance criterion of the greedy engine: a generated 50-atom cyclic
// hypergraph compiles in < 1s with GreedyDecomposer under a step budget
// that makes the exact search give up with ErrStepBudget. The greedy plan
// must execute and agree with itself under workers — and on every query
// both decomposers can compile (the property tests above) the answers
// match.
func TestGreedyGHDCompilesWhereExactCannot(t *testing.T) {
	q := gen.RandomCSP(rand.New(rand.NewSource(42)), 30, 50, 3)
	if IsAcyclic(q) {
		t.Fatal("RandomCSP must be cyclic")
	}
	const budget = 20000

	if _, err := Compile(q, WithStrategy(StrategyHypertree), WithStepBudget(budget)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("exact search on the 50-atom CSP: err = %v, want ErrStepBudget", err)
	}

	start := time.Now()
	plan, err := Compile(q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer()), WithStepBudget(budget))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("greedy compile: %v", err)
	}
	if elapsed >= time.Second {
		t.Fatalf("greedy compile took %v, want < 1s", elapsed)
	}
	if !plan.Generalized() {
		t.Fatal("greedy plan must be marked generalized")
	}
	if err := ValidateGHD(plan.Decomposition()); err != nil {
		t.Fatal(err)
	}
	t.Logf("50-atom CSP: greedy compiled width-%d GHD in %v (exact exhausted %d steps)",
		plan.Width(), elapsed, budget)

	// the plan is executable: run it against a small random database
	db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, 6, 3)
	ctx := context.Background()
	seqAns, err := plan.ExecuteBoolean(ctx, db)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	parPlan, err := Compile(q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer()), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	parAns, err := parPlan.ExecuteBoolean(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if seqAns != parAns {
		t.Fatalf("sequential (%v) and parallel (%v) greedy plans disagree", seqAns, parAns)
	}
}

// GreedyDecomposer honours the compile options end to end: MaxWidth,
// StepBudget, cancellation, and the option validators.
func TestGreedyCompileOptions(t *testing.T) {
	q := gen.Cycle(10)
	if _, err := Compile(q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer()), WithMaxWidth(2)); err != nil {
		t.Fatalf("maxWidth 2: %v", err)
	}
	if _, err := Compile(q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer()), WithMaxWidth(1)); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("maxWidth 1: err = %v, want ErrWidthExceeded", err)
	}
	if _, err := Compile(q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer()), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget 1: err = %v, want ErrStepBudget", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, q, WithStrategy(StrategyHypertree),
		WithDecomposer(GreedyDecomposer())); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}
}
