package decomp

import (
	"math/rand"
	"testing"

	"hypertree/internal/gen"
)

// The ablation switches must not change any decision, only the work done.
func TestAblationSwitchesPreserveDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		h := randomHG(rng, 2+rng.Intn(7), 1+rng.Intn(6), 1+rng.Intn(4))
		for k := 1; k <= 3; k++ {
			base := decider(h, k)
			want := base.Decide()

			noMemo := decider(h, k)
			noMemo.disableMemo = true
			if got := noMemo.Decide(); got != want {
				t.Fatalf("trial %d k=%d: disableMemo changed the decision\n%s", trial, k, h)
			}

			fullKey := decider(h, k)
			fullKey.fullSeparatorKey = true
			if got := fullKey.Decide(); got != want {
				t.Fatalf("trial %d k=%d: fullSeparatorKey changed the decision\n%s", trial, k, h)
			}
			if want {
				d := fullKey.Decompose()
				if d == nil {
					t.Fatalf("trial %d k=%d: fullSeparatorKey Decompose failed", trial, k)
				}
				if err := d.Validate(); err != nil {
					t.Fatalf("trial %d k=%d: %v", trial, k, err)
				}
				d2 := func() *Decomposition {
					nm := decider(h, k)
					nm.disableMemo = true
					return nm.Decompose()
				}()
				if d2 == nil {
					t.Fatalf("trial %d k=%d: disableMemo Decompose failed", trial, k)
				}
				if err := d2.Validate(); err != nil {
					t.Fatalf("trial %d k=%d: %v", trial, k, err)
				}
			}
		}
	}
}

// Memoisation must never do more subproblem work than the ablated variants.
func TestAblationWorkOrdering(t *testing.T) {
	h := hg(`r1(A,B), r2(B,C), r3(C,D), r4(D,E), r5(E,A), r6(A,C), r7(B,D)`)
	run := func(cfg func(*Decider)) int {
		d := decider(h, 2)
		cfg(d)
		d.Decide()
		return d.Calls
	}
	base := run(func(*Decider) {})
	noMemo := run(func(d *Decider) { d.disableMemo = true })
	fullKey := run(func(d *Decider) { d.fullSeparatorKey = true })
	if base > noMemo {
		t.Errorf("memoised search did more work (%d) than memo-free (%d)", base, noMemo)
	}
	if base > fullKey {
		t.Errorf("frontier key did more work (%d) than full-separator key (%d)", base, fullKey)
	}
}

// Ablation benches for the two k-decomp design choices documented in
// docs/ARCHITECTURE.md (internal/decomp): subproblem memoisation and the
// frontier-based memo key.
func BenchmarkAblationKDecomp(b *testing.B) {
	h, _ := gen.Grid(4, 4).Hypergraph()
	run := func(b *testing.B, cfg func(*Decider)) {
		for i := 0; i < b.N; i++ {
			d := decider(h, 3)
			cfg(d)
			if !d.Decide() {
				b.Fatal("grid(4,4) has hw 3")
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, func(*Decider) {}) })
	b.Run("no-memo", func(b *testing.B) { run(b, func(d *Decider) { d.disableMemo = true }) })
	b.Run("full-separator-key", func(b *testing.B) { run(b, func(d *Decider) { d.fullSeparatorKey = true }) })
}
