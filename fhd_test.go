package hypertree

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"hypertree/internal/gen"
)

// Cross-decomposer answer equivalence for the fractional engine: on random
// acyclic and cyclic queries the fhd plan returns exactly the answer table
// of the exact k-decomp and greedy GHD plans (with the naive join as the
// semantics reference), and its fractional width never exceeds the greedy
// integral width.
func TestPropertyFractionalAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	ctx := context.Background()
	cyclicSeen, acyclicSeen := 0, 0
	for trial := 0; trial < 40; trial++ {
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

		frac, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer()))
		if err != nil {
			t.Fatalf("trial %d fhd: %v", trial, err)
		}
		if !frac.Fractional() || !frac.Generalized() {
			t.Fatalf("trial %d: fhd plan must be fractional and generalized", trial)
		}
		if err := ValidateFHD(frac.Decomposition()); err != nil {
			t.Fatalf("trial %d: fhd decomposition invalid: %v", trial, err)
		}
		greedy, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
		if err != nil {
			t.Fatalf("trial %d ghd: %v", trial, err)
		}
		if fw := frac.FractionalWidth(); fw > float64(greedy.Width())+1e-6 {
			t.Fatalf("trial %d: fhw %v exceeds greedy width %d on %s", trial, fw, greedy.Width(), q)
		}

		naive, err := Compile(q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		ref, err := naive.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		exact, err := Compile(q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		for name, p := range map[string]*Plan{"fhd": frac, "exact": exact, "ghd": greedy} {
			tab, err := p.Execute(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s execute: %v", trial, name, err)
			}
			if !tab.Equal(ref) {
				t.Fatalf("trial %d: %s plan disagrees with naive on %s", trial, name, q)
			}
			ok, err := p.ExecuteBoolean(ctx, db)
			if err != nil {
				t.Fatalf("trial %d %s boolean: %v", trial, name, err)
			}
			if ok != !ref.Empty() {
				t.Fatalf("trial %d: %s Boolean disagreement on %s", trial, name, q)
			}
		}
	}
	if cyclicSeen == 0 || acyclicSeen == 0 {
		t.Fatalf("corpus covered %d cyclic / %d acyclic queries; want both non-zero", cyclicSeen, acyclicSeen)
	}
}

// Head projections agree between the fractional and the exact plans too.
func TestPropertyFractionalAgreesWithHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		base := gen.RandomQuery(rng, 3+rng.Intn(3), 2+rng.Intn(3), 2)
		v := base.VarName(rng.Intn(base.NumVars()))
		q := MustParseQuery(`ans(` + v + `) :- ` + stripHead(base.String()))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 3)

		exact, err := Compile(q, WithStrategy(StrategyHypertree))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		frac, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		te, err := exact.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tf, err := frac.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !te.Equal(tf) {
			t.Fatalf("trial %d: projections disagree on %s", trial, q)
		}
	}
}

// The acceptance witness of the fractional engine: on the binary 5-clique
// the greedy GHD needs integral width 3, while the fractional plan prices
// the same bag at fhw = 5/2 — fhw < ghw, with answers identical.
func TestFractionalWidthBeatsGreedyOnClique(t *testing.T) {
	q := gen.CliqueBinary(5)
	greedy, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
	if err != nil {
		t.Fatal(err)
	}
	frac, err := Compile(q, WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer()))
	if err != nil {
		t.Fatal(err)
	}
	if fw, gw := frac.FractionalWidth(), float64(greedy.Width()); fw >= gw {
		t.Fatalf("fhw %v !< ghw %v on K5", fw, gw)
	}
	if fw := frac.FractionalWidth(); fw < 2.49 || fw > 2.51 {
		t.Fatalf("fhw(K5) = %v, want 2.5", fw)
	}
	// integral plans report FractionalWidth == Width
	if gfw := greedy.FractionalWidth(); gfw != float64(greedy.Width()) {
		t.Fatalf("greedy FractionalWidth %v != Width %d", gfw, greedy.Width())
	}

	db := gen.RandomDatabase(rand.New(rand.NewSource(3)), q, 12, 4)
	ctx := context.Background()
	tg, err := greedy.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := frac.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Equal(tf) {
		t.Fatal("fractional and greedy plans disagree on K5")
	}
}

// WithAutoStrategy: the race must terminate, resolve deterministically on
// clear-cut instances, and produce answer-identical plans.
func TestAutoStrategyRace(t *testing.T) {
	ctx := context.Background()

	// K5: the fractional engine's fhw 2.5 beats hw = ghw = 3.
	k5, err := Compile(gen.CliqueBinary(5), WithStrategy(StrategyHypertree), WithAutoStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if k5.DecomposerName() != "auto(fhd)" {
		t.Fatalf("K5 winner = %q, want auto(fhd)", k5.DecomposerName())
	}
	if !k5.Fractional() {
		t.Fatal("K5 auto plan must be fractional")
	}

	// cycle(4): every engine achieves width 2, so the exact HD wins the tie.
	c4, err := Compile(gen.Cycle(4), WithStrategy(StrategyHypertree), WithAutoStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if c4.DecomposerName() != "auto(k-decomp)" {
		t.Fatalf("cycle(4) winner = %q, want auto(k-decomp)", c4.DecomposerName())
	}
	if c4.Generalized() || c4.Fractional() {
		t.Fatal("exact race winner must be a plain HD plan")
	}

	// A 50-atom CSP: the exact entrant exhausts its default budget and a
	// heuristic must win; the plan still executes correctly.
	big := gen.RandomCSP(rand.New(rand.NewSource(42)), 30, 50, 3)
	auto, err := Compile(big, WithStrategy(StrategyHypertree), WithAutoStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if name := auto.DecomposerName(); !strings.HasPrefix(name, "auto(") || name == "auto(k-decomp)" {
		t.Fatalf("big CSP winner = %q, want a heuristic engine", name)
	}
	db := gen.RandomDatabase(rand.New(rand.NewSource(1)), big, 6, 3)
	want, err := Compile(big, WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer()))
	if err != nil {
		t.Fatal(err)
	}
	wt, err := want.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	at, err := auto.Execute(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if !at.Equal(wt) {
		t.Fatal("auto plan disagrees with ghd plan on the big CSP")
	}
}

// Auto racing on random queries: the winner always answers exactly like
// the naive join, across the full strategy surface.
func TestPropertyAutoStrategyAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(263))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		var q *Query
		if trial%2 == 0 {
			q = gen.RandomQuery(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
		} else {
			q = gen.RandomCSP(rng, 3+rng.Intn(4), 6+rng.Intn(4), 3)
		}
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 2+rng.Intn(4))
		naive, err := Compile(q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		auto, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy())
		if err != nil {
			t.Fatalf("trial %d auto: %v", trial, err)
		}
		ref, err := naive.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := auto.Execute(ctx, db)
		if err != nil {
			t.Fatalf("trial %d auto execute: %v", trial, err)
		}
		if !got.Equal(ref) {
			t.Fatalf("trial %d: auto plan (%s) disagrees with naive on %s", trial, auto, q)
		}
	}
}

// The auto race honours the option plumbing: cancellation, budgets and the
// WithDecomposer conflict.
func TestAutoStrategyOptions(t *testing.T) {
	q := gen.Cycle(6)
	if _, err := Compile(q, WithAutoStrategy(), WithDecomposer(GreedyDecomposer())); err == nil {
		t.Fatal("WithAutoStrategy + WithDecomposer must be rejected")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileContext(ctx, q, WithStrategy(StrategyHypertree), WithAutoStrategy()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled race: err = %v, want context.Canceled", err)
	}

	// A 1-step budget starves every entrant: the race must fail with the
	// joined errors, ErrStepBudget among them.
	if _, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy(), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("starved race: err = %v, want ErrStepBudget", err)
	}

	// With workers the exact entrant is still k-decomp, its root guesses
	// fanned out over them.
	p, err := Compile(gen.Cycle(4), WithStrategy(StrategyHypertree), WithAutoStrategy(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if p.DecomposerName() != "auto(k-decomp)" {
		t.Fatalf("workers race winner = %q", p.DecomposerName())
	}
}

// Fractional compile options: the width bound reads fractionally, budgets
// bite, and the engine is named "fhd".
func TestFractionalCompileOptions(t *testing.T) {
	k5 := gen.CliqueBinary(5)
	// fhw(K5) = 2.5 ≤ 3 passes where the integral ghd bound of 3 also
	// passes; bound 2 must fail fractionally.
	if _, err := Compile(k5, WithStrategy(StrategyHypertree),
		WithDecomposer(FractionalDecomposer()), WithMaxWidth(3)); err != nil {
		t.Fatalf("maxWidth 3: %v", err)
	}
	if _, err := Compile(k5, WithStrategy(StrategyHypertree),
		WithDecomposer(FractionalDecomposer()), WithMaxWidth(2)); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("maxWidth 2: err = %v, want ErrWidthExceeded", err)
	}
	if _, err := Compile(k5, WithStrategy(StrategyHypertree),
		WithDecomposer(FractionalDecomposer()), WithStepBudget(1)); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget 1: err = %v, want ErrStepBudget", err)
	}

	if name := FractionalDecomposer().Name(); name != "fhd" {
		t.Fatalf("default name %q", name)
	}
}
