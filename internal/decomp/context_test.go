package decomp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/hypergraph"
)

func TestDecideContextCancelled(t *testing.T) {
	h := hg(`r(X,Y), s(Y,Z), t(Z,X)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecideContext(ctx, h, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := DecomposeContext(ctx, h, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, _, err := WidthContext(ctx, h, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := Search(NewBudget(ctx, 0), h, 2, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v, want context.Canceled", err)
	}
}

func TestContextTypedErrors(t *testing.T) {
	h := hg(`r(X,Y), s(Y,Z), t(Z,X)`)
	ctx := context.Background()
	if _, err := DecomposeContext(ctx, h, 0, 0); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("k=0: err = %v, want ErrInvalidWidth", err)
	}
	if _, err := Search(NewBudget(ctx, 0), h, 0, 2); !errors.Is(err, ErrInvalidWidth) {
		t.Fatalf("parallel k=0: err = %v, want ErrInvalidWidth", err)
	}
	if _, err := Search(NewBudget(ctx, 0), h, 1, 2); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("triangle hw=2: parallel k=1: err = %v, want ErrWidthExceeded", err)
	}
	if _, err := DecomposeContext(ctx, h, 1, 0); !errors.Is(err, ErrWidthExceeded) {
		t.Fatalf("k=1: err = %v, want ErrWidthExceeded", err)
	}
	d, err := DecomposeContext(ctx, h, 2, 0)
	if err != nil {
		t.Fatalf("k=2: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStepBudgetCutsSearchOff(t *testing.T) {
	h := hg(`a(X1,X2), b(X2,X3), c(X3,X4), d(X4,X1), e(X1,X3), f(X2,X4)`)
	ctx := context.Background()
	if _, err := DecomposeContext(ctx, h, 2, 1); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("budget 1: err = %v, want ErrStepBudget", err)
	}
	if _, _, err := WidthContext(ctx, h, 2, 0); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("width budget 2: err = %v, want ErrStepBudget", err)
	}
	// a generous budget must not change the result
	w, d, err := WidthContext(ctx, h, 1_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Width(h)
	if w != want || d == nil {
		t.Fatalf("budgeted width = %d, want %d", w, want)
	}
}

// A width cap only stops the minimising search early: for every cap and
// budget, WidthContext returns the uncapped result when it has width ≤
// cap, ErrWidthExceeded when the levels up to the cap completed without a
// decomposition, and ErrStepBudget exactly when the uncapped search ran
// out of budget at or below the cap. The same loop over Search at three
// workers, unbudgeted, is held to the same widths.
func TestCappedWidthMatchesUncapped(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	var hs []*hypergraph.Hypergraph
	for i := 0; i < 40; i++ {
		hs = append(hs, randomHG(rng, 3+rng.Intn(6), 3+rng.Intn(8), 2+rng.Intn(2)))
	}
	for n := 4; n <= 7; n++ { // binary cliques: hw ⌈n/2⌉
		h := hypergraph.New()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				h.AddEdge(fmt.Sprintf("e%d_%d", i, j), fmt.Sprintf("V%d", i), fmt.Sprintf("V%d", j))
			}
		}
		hs = append(hs, h)
	}
	type result struct {
		k   int
		d   string
		err error
	}
	run := func(k int, d *Decomposition, err error) result {
		if err != nil {
			return result{err: err}
		}
		return result{k: k, d: d.String()}
	}
	seen := map[string]int{}
	for i, h := range hs {
		hw, _ := Width(h)
		searches := map[string]func(budget, maxK int) result{
			"sequential": func(budget, maxK int) result { return run(WidthContext(ctx, h, budget, maxK)) },
		}
		for name, search := range searches {
			for _, budget := range []int{0, 5, 40, 300} {
				uncapped := search(budget, 0)
				for maxK := 1; maxK <= 4; maxK++ {
					where := fmt.Sprintf("hypergraph %d (hw %d), %s, budget %d, cap %d", i, hw, name, budget, maxK)
					capped := search(budget, maxK)
					switch {
					case uncapped.err == nil && uncapped.k <= maxK:
						if capped != uncapped {
							t.Errorf("%s: capped %+v, uncapped %+v", where, capped, uncapped)
						}
						seen["same decomposition"]++
					case errors.Is(capped.err, ErrWidthExceeded):
						if hw <= maxK || (uncapped.err != nil && !errors.Is(uncapped.err, ErrStepBudget)) {
							t.Errorf("%s: capped proved hw > cap, uncapped %+v", where, uncapped)
						}
						seen["width exceeded"]++
					case errors.Is(capped.err, ErrStepBudget):
						if !errors.Is(uncapped.err, ErrStepBudget) {
							t.Errorf("%s: capped ran out of budget, uncapped %+v", where, uncapped)
						}
						seen["budget"]++
					default:
						t.Errorf("%s: capped %+v, uncapped %+v", where, capped, uncapped)
					}
				}
			}
		}
		for maxK := 1; maxK <= 4; maxK++ {
			b := NewBudget(ctx, 0)
			k, d, err := MinWidth(h, 1, maxK, func(k int) (*Decomposition, error) {
				return Search(b, h, k, 3)
			})
			switch {
			case hw <= maxK && (err != nil || k != hw || d.Validate() != nil):
				t.Errorf("hypergraph %d (hw %d), parallel-3, cap %d: width %d, %v", i, hw, maxK, k, err)
			case hw > maxK && !errors.Is(err, ErrWidthExceeded):
				t.Errorf("hypergraph %d (hw %d), parallel-3, cap %d: err %v, want ErrWidthExceeded", i, hw, maxK, err)
			}
		}
	}
	t.Logf("outcomes: %v", seen)
	for _, outcome := range []string{"same decomposition", "width exceeded", "budget"} {
		if seen[outcome] == 0 {
			t.Errorf("no capped search ended in %q: the corpus no longer exercises it", outcome)
		}
	}
}
