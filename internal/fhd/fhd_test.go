package fhd

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/ghd"
	"hypertree/internal/hypergraph"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestCoverClique(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n    int
		want float64
	}{{3, 1.5}, {4, 2}, {5, 2.5}, {6, 3}, {7, 3.5}} {
		h, _ := gen.CliqueBinary(tc.n).Hypergraph()
		weights, v, err := Cover(ctx, h, h.AllVertices(), nil)
		if err != nil {
			t.Fatalf("K%d: %v", tc.n, err)
		}
		if !approx(v, tc.want) {
			t.Fatalf("K%d: fractional cover %v, want %v", tc.n, v, tc.want)
		}
		// the support must be an integral cover of the bag
		covered := 0
		h.AllVertices().ForEach(func(u int) {
			for e := range weights {
				if h.Edge(e).Has(u) {
					covered++
					return
				}
			}
		})
		if covered != h.NumVertices() {
			t.Fatalf("K%d: support covers %d/%d vertices", tc.n, covered, h.NumVertices())
		}
	}
}

func TestCoverOddCycleBag(t *testing.T) {
	// The whole vertex set of C5 covered by its 5 binary edges: fractional
	// cover 5/2 (weight 1/2 everywhere), integral cover 3.
	h, _ := gen.Cycle(5).Hypergraph()
	_, v, err := Cover(context.Background(), h, h.AllVertices(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 2.5) {
		t.Fatalf("C5 fractional cover %v, want 2.5", v)
	}
}

func TestDecomposeCliqueBeatsGreedy(t *testing.T) {
	// The separation witness: on K5 the greedy GHD achieves width 3 while
	// the fractional engine prices the same single bag at 5/2.
	ctx := context.Background()
	h, _ := gen.CliqueBinary(5).Hypergraph()

	g, err := ghd.Decompose(ctx, h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decompose(ctx, h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ValidateFractional(); err != nil {
		t.Fatalf("fractional validation: %v", err)
	}
	if err := f.ValidateGHD(); err != nil {
		t.Fatalf("support sets must stay a valid GHD: %v", err)
	}
	if fw := f.FractionalWidth(); !(fw < float64(g.Width())-0.1) || !approx(fw, 2.5) {
		t.Fatalf("fhw %v vs greedy width %d: want 2.5 < 3", fw, g.Width())
	}
}

func TestDecomposeMatchesWidthOf(t *testing.T) {
	// On an fhd-produced decomposition the achieved fractional width equals
	// the LP-optimal re-cover of its own bags.
	ctx := context.Background()
	for _, q := range []string{"clique", "cycle", "csp"} {
		var h *hypergraph.Hypergraph
		switch q {
		case "clique":
			h, _ = gen.CliqueBinary(6).Hypergraph()
		case "cycle":
			h, _ = gen.Cycle(9).Hypergraph()
		case "csp":
			h, _ = gen.Q5().Hypergraph()
		}
		d, err := Decompose(ctx, h, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		opt, err := WidthOf(ctx, d)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !approx(d.FractionalWidth(), opt) {
			t.Fatalf("%s: achieved fhw %v != optimal re-cover %v", q, d.FractionalWidth(), opt)
		}
	}
}

func TestFractionalNeverExceedsGreedy(t *testing.T) {
	// fhw of the chosen shape can never exceed the greedy integral width on
	// the same instance: every integral cover is a fractional one.
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		src  func() *hypergraph.Hypergraph
	}{
		{"cycle8", func() *hypergraph.Hypergraph { h, _ := gen.Cycle(8).Hypergraph(); return h }},
		{"grid33", func() *hypergraph.Hypergraph { h, _ := gen.Grid(3, 3).Hypergraph(); return h }},
		{"clique7", func() *hypergraph.Hypergraph { h, _ := gen.CliqueBinary(7).Hypergraph(); return h }},
		{"q5", func() *hypergraph.Hypergraph { h, _ := gen.Q5().Hypergraph(); return h }},
	} {
		h := tc.src()
		g, err := ghd.Decompose(ctx, h, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f, err := Decompose(ctx, h, nil, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := f.ValidateFractional(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f.FractionalWidth() > float64(g.Width())+decomp.FracEps {
			t.Fatalf("%s: fhw %v exceeds greedy width %d", tc.name, f.FractionalWidth(), g.Width())
		}
	}
}

func TestDecomposeBudgetAndCancel(t *testing.T) {
	h, _ := gen.CliqueBinary(6).Hypergraph()

	if _, err := Decompose(context.Background(), h, nil, 0, 1); !errors.Is(err, decomp.ErrStepBudget) {
		t.Fatalf("budget 1: err = %v, want ErrStepBudget", err)
	}

	// a budget big enough for the eliminations but starving the LP pivots
	// must still surface ErrStepBudget, not a bogus decomposition
	if d, err := Decompose(context.Background(), h, nil, 0, 7); err != nil {
		if !errors.Is(err, decomp.ErrStepBudget) {
			t.Fatalf("tiny budget: %v", err)
		}
	} else if err := d.ValidateFractional(); err != nil {
		t.Fatalf("partial-budget decomposition invalid: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Decompose(ctx, h, nil, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v, want context.Canceled", err)
	}
}

func TestDecomposeMaxWidth(t *testing.T) {
	h, _ := gen.CliqueBinary(5).Hypergraph()
	// fhw 2.5 ≤ 3 passes, ≤ 2 fails
	if _, err := Decompose(context.Background(), h, nil, 3, 0); err != nil {
		t.Fatalf("maxWidth 3: %v", err)
	}
	if _, err := Decompose(context.Background(), h, nil, 2, 0); !errors.Is(err, decomp.ErrWidthExceeded) {
		t.Fatalf("maxWidth 2: err = %v, want ErrWidthExceeded", err)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := hypergraph.New()
	d, err := Decompose(context.Background(), h, nil, 0, 0)
	if err != nil || d.Root != nil {
		t.Fatalf("empty: d=%v err=%v", d, err)
	}
	if w, err := WidthOf(context.Background(), d); err != nil || w != 0 {
		t.Fatalf("empty width %v err %v", w, err)
	}
}

// families are the hypergraphs of gen.Families.
func families() map[string]*hypergraph.Hypergraph {
	out := map[string]*hypergraph.Hypergraph{}
	for name, q := range gen.Families() {
		out[name], _ = q.Hypergraph()
	}
	return out
}

// Under random statistics the engine stays a valid FHD of the same
// fractional width as without them: the model picks among covers and shapes
// of equal width, never a wider one — and where a bag's ρ* is integral it
// may swap the LP's vertex for the cost-aware integral cover, never a
// dearer one.
func TestCostModelNeverWorsensFractionalWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	for name, h := range families() {
		plain, err := Decompose(ctx, h, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			rows := make([]float64, h.NumEdges())
			for e := range rows {
				rows[e] = float64(1 + rng.Intn(100000))
			}
			m := decomp.NewCostModel(h, rows, func(e, v int) float64 { return float64(1 + rng.Intn(int(rows[e]))) })
			costed, err := Decompose(ctx, h, m, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := costed.ValidateFractional(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if costed.FractionalWidth() > plain.FractionalWidth()+decomp.FracEps {
				t.Fatalf("%s: statistics worsened fhw %v → %v", name, plain.FractionalWidth(), costed.FractionalWidth())
			}
			if costed.CostWith(m) > plain.CostWith(m)*(1+1e-9) {
				t.Fatalf("%s: cost-aware %g dearer than width-only %g", name, costed.CostWith(m), plain.CostWith(m))
			}
		}
	}
}

// On the 4-cycle every bag has ρ* = 2 and several optimal LP vertices, one
// of them a product of two disjoint edges; with statistics each bag must
// carry a join instead, at weights 1.
func TestIntegralBagsKeepTheCostAwareCover(t *testing.T) {
	h, _ := gen.Cycle(4).Hypergraph()
	rows := []float64{500, 500, 500, 500}
	m := decomp.NewCostModel(h, rows, func(e, v int) float64 { return 200 })
	d, err := Decompose(context.Background(), h, m, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateFractional(); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nodes() {
		if n.Lambda.Len() != 2 || decomp.NodeCost(n, m) != 500*500/200 {
			t.Errorf("bag χ%v λ%v estimated %g rows, want a 2-edge join of 1250",
				h.VertexNames(n.Chi), h.EdgeNames(n.Lambda), decomp.NodeCost(n, m))
		}
		for e, w := range n.Weights {
			if w != 1 || !n.Lambda.Has(e) {
				t.Errorf("bag λ%v carries weight %v on edge %d", h.EdgeNames(n.Lambda), w, e)
			}
		}
	}
}

// Without a cost model the engine returns, byte for byte, the
// decompositions (and fractional widths) it returned before the model
// existed: digests taken at the commit that introduced it.
func TestNilModelDecompositionsUnchanged(t *testing.T) {
	want := map[string]string{
		"Q1": "974a0899a73adf40", "Q4": "6686fe0732776afc", "Q5": "85b36274c0e21331",
		"classC4": "3fd9f7df7d0a1b87", "clique6": "9d04a561097d9f34", "csp50atom": "47698532c85399d3",
		"cycle12": "05fa735dacd84204", "grid44": "ff56c3c19d05002c", "path9": "1514734e67fcd2e7",
		"star8": "79120e79d1a864af",
	}
	for name, h := range families() {
		d, err := Decompose(context.Background(), h, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s%.6f", d, d.FractionalWidth())))
		if got := fmt.Sprintf("%x", sum)[:16]; got != want[name] {
			t.Errorf("%s: decomposition digest %s, want %s\n%s", name, got, want[name], d)
		}
	}
}

// Under fixed statistics, and under none, every engine over the shape
// portfolio returns, byte for byte, what it returned before the greedy
// engine and the race's walk shared one shape loop: ghd.Decompose,
// Decompose and both candidates of DecomposeWithGreedy, for maxWidth 0, 2
// and 3 (errors included). One digest per family, taken at the commit
// before that change; the two models are drawn from fixed seeds.
func TestCostModelDecompositionsUnchanged(t *testing.T) {
	want := map[string]string{
		"Q1": "462bf8457c6d1c59", "Q4": "e1f29bb38fe3e5bd", "Q5": "a7da351dacf7b4b3",
		"classC4": "f2b3a601dcfeffea", "clique6": "8b0431dec0bafbab", "csp50atom": "7d1b2e4c10a9ccbc",
		"cycle12": "0eeb6fbec86b2f61", "grid44": "7e238e8f9ddc6415", "path9": "38c3baf1e037b5f7",
		"star8": "70116203f8e6cca8",
	}
	ctx := context.Background()
	for name, h := range families() {
		models := []*decomp.CostModel{nil}
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			rows := make([]float64, h.NumEdges())
			for e := range rows {
				rows[e] = float64(1 + rng.Intn(100000))
			}
			models = append(models, decomp.NewCostModel(h, rows, func(e, v int) float64 { return float64(1 + rng.Intn(int(rows[e]))) }))
		}
		digest := sha256.New()
		out := func(d *decomp.Decomposition, err error) {
			if err != nil {
				fmt.Fprintf(digest, "error: %v\n", err)
				return
			}
			fmt.Fprintf(digest, "%s%.6f\n", d, d.FractionalWidth())
		}
		for _, m := range models {
			for _, maxWidth := range []int{0, 2, 3} {
				out(ghd.Decompose(ctx, h, m, maxWidth, 0))
				out(Decompose(ctx, h, m, maxWidth, 0))
				frac, greedy := DecomposeWithGreedy(ctx, h, m, maxWidth, 0)
				out(frac.D, frac.Err)
				out(greedy.D, greedy.Err)
			}
		}
		if got := fmt.Sprintf("%x", digest.Sum(nil))[:16]; got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}

// leastBudget returns the least step budget under which run ends in
// anything but ErrStepBudget, or ceiling+1 when it needs more than ceiling:
// a doubling probe, then a bisection.
func leastBudget(ceiling int, run func(budget int) error) int {
	over := func(b int) bool { return errors.Is(run(b), decomp.ErrStepBudget) }
	hi := 1
	for ; over(hi); hi *= 2 {
		if hi >= ceiling {
			return ceiling + 1
		}
	}
	lo := hi / 2 // over(lo) holds, or lo = 0
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; over(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Under a step budget every heuristic engine over the shape portfolio
// returns, byte for byte, what it returned before all the decomposition
// searches charged one step budget: ghd.Decompose, Decompose and both
// candidates of DecomposeWithGreedy, for maxWidth 0 and 2, at budgets 1,
// 5, 40, 300 and 3000, each with the least budget it completes under
// (errors included). One digest per family, taken at the commit before
// that change.
func TestBudgetedHeuristicsUnchanged(t *testing.T) {
	want := map[string]string{
		"Q1": "6343d5badb5f7ac1", "Q4": "5c5dfd986c054df7", "Q5": "daa396ffd7157336",
		"classC4": "b3c7fce4bfa70c3a", "clique6": "32ed1b1512eff547", "csp50atom": "38f4b40726894f9d",
		"cycle12": "ad652c8f4fb45b4e", "grid44": "d4e2b07e294c2903", "path9": "2b6cf6dac020d58b",
		"star8": "040ae931f2f31e63",
	}
	ctx := context.Background()
	engines := []struct {
		name string
		run  func(h *hypergraph.Hypergraph, maxWidth, budget int) (*decomp.Decomposition, error)
	}{
		{"ghd.Decompose", func(h *hypergraph.Hypergraph, maxWidth, budget int) (*decomp.Decomposition, error) {
			return ghd.Decompose(ctx, h, nil, maxWidth, budget)
		}},
		{"Decompose", func(h *hypergraph.Hypergraph, maxWidth, budget int) (*decomp.Decomposition, error) {
			return Decompose(ctx, h, nil, maxWidth, budget)
		}},
		{"DecomposeWithGreedy frac", func(h *hypergraph.Hypergraph, maxWidth, budget int) (*decomp.Decomposition, error) {
			frac, _ := DecomposeWithGreedy(ctx, h, nil, maxWidth, budget)
			return frac.D, frac.Err
		}},
		{"DecomposeWithGreedy greedy", func(h *hypergraph.Hypergraph, maxWidth, budget int) (*decomp.Decomposition, error) {
			_, greedy := DecomposeWithGreedy(ctx, h, nil, maxWidth, budget)
			return greedy.D, greedy.Err
		}},
	}
	for name, h := range families() {
		digest := sha256.New()
		for _, e := range engines {
			for _, maxWidth := range []int{0, 2} {
				least := leastBudget(1<<16, func(budget int) error { _, err := e.run(h, maxWidth, budget); return err })
				fmt.Fprintf(digest, "%s maxWidth %d: least budget %d\n", e.name, maxWidth, least)
				for _, budget := range []int{1, 5, 40, 300, 3000} {
					d, err := e.run(h, maxWidth, budget)
					if err != nil {
						fmt.Fprintf(digest, "budget %d: error: %v\n", budget, err)
						continue
					}
					fmt.Fprintf(digest, "budget %d: %s%.6f\n", budget, d, d.FractionalWidth())
				}
			}
		}
		if got := fmt.Sprintf("%x", digest.Sum(nil))[:16]; got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
