package ghd

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hypergraph"
	"hypertree/internal/treewidth"
)

// decompose without statistics or limits.
func mustDecompose(t *testing.T, h *hypergraph.Hypergraph) *decomp.Decomposition {
	t.Helper()
	d, err := Decompose(context.Background(), h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func queryHG(t *testing.T, q interface {
	Hypergraph() (*hypergraph.Hypergraph, []int)
}) *hypergraph.Hypergraph {
	t.Helper()
	h, _ := q.Hypergraph()
	return h
}

// Every GHD produced on the paper's example corpus and the parametric
// families must satisfy conditions 1–3 of Definition 4.1.
func TestGreedyGHDValid(t *testing.T) {
	for name, h := range families() {
		d := mustDecompose(t, h)
		if err := d.ValidateGHD(); err != nil {
			t.Errorf("%s: invalid GHD: %v", name, err)
		}
		if d.Width() < 1 {
			t.Errorf("%s: width %d < 1", name, d.Width())
		}
	}
}

// On known families the greedy width must match the structure: hw upper
// bounds that the heuristics are known to hit.
func TestGreedyGHDKnownWidths(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    *hypergraph.Hypergraph
		want int // acceptable maximum greedy width
	}{
		{"path9 (acyclic)", queryHG(t, gen.Path(9)), 1},
		{"star8 (acyclic)", queryHG(t, gen.Star(8)), 1},
		{"classC4 (acyclic)", queryHG(t, gen.ClassCn(4)), 1},
		{"cycle12 (hw 2)", queryHG(t, gen.Cycle(12)), 2},
		{"Q5 (hw 2)", queryHG(t, gen.Q5()), 2},
	} {
		d := mustDecompose(t, tc.h)
		if got := d.Width(); got > tc.want {
			t.Errorf("%s: greedy width %d, want ≤ %d", tc.name, got, tc.want)
		}
	}
}

// The greedy width can never beat the exact hypertree width (ghw ≤ hw, so a
// valid GHD of width < hw would contradict ghw ≤ hw only if... it cannot be
// smaller than ghw, and hw ≥ ghw — i.e. greedy < exact hw is legal for a
// GHD in general, but on these small instances with binary edges ghw = hw,
// so the exact hw is a hard lower bound for what the greedy can report).
func TestGreedyWidthAtLeastGHW(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		q := gen.RandomQuery(rng, 2+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(3))
		h, _ := q.Hypergraph()
		if h.NumEdges() == 0 {
			continue
		}
		g := mustDecompose(t, h)
		// a GHD of width w certifies ghw ≤ w; validating it is the real check
		if err := g.ValidateGHD(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// MaxWidth: accepted when a trial reaches it, ErrWidthExceeded otherwise.
func TestGreedyMaxWidth(t *testing.T) {
	h := queryHG(t, gen.Cycle(12)) // greedy finds width 2
	if _, err := Decompose(context.Background(), h, nil, 2, 0); err != nil {
		t.Fatalf("maxWidth 2 on cycle(12): %v", err)
	}
	if _, err := Decompose(context.Background(), h, nil, 1, 0); !errors.Is(err, decomp.ErrWidthExceeded) {
		t.Fatalf("maxWidth 1 on cycle(12): err = %v, want ErrWidthExceeded", err)
	}
}

// Step budget: too small to finish a single ordering → ErrStepBudget; big
// enough for one trial but not all → the best-so-far is still returned.
func TestGreedyStepBudget(t *testing.T) {
	h := queryHG(t, gen.Grid(4, 4)) // 16 vertices
	if _, err := Decompose(context.Background(), h, nil, 0, 3); !errors.Is(err, decomp.ErrStepBudget) {
		t.Fatalf("budget 3: err = %v, want ErrStepBudget", err)
	}
	// 20 steps: the first min-fill pass (16 eliminations) completes, later
	// trials are cut off — the completed decomposition must be returned.
	d, err := Decompose(context.Background(), h, nil, 0, 20)
	if err != nil {
		t.Fatalf("budget 20: %v", err)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
}

// Cancellation aborts promptly with ctx.Err().
func TestGreedyCancelled(t *testing.T) {
	h := queryHG(t, gen.Grid(5, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Decompose(ctx, h, nil, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Each single ordering on its own produces a valid GHD; the portfolio keeps
// the best of them.
func TestGreedyOrderingsIndividually(t *testing.T) {
	h := queryHG(t, gen.Grid(4, 4))
	best := 1 << 30
	for _, ord := range []treewidth.Ordering{treewidth.MinFill, treewidth.MinDegree, treewidth.MaxCardinality} {
		d, err := runTrial(context.Background(), h, h.PrimalGraph(), ord, 0, nil, NewBudget(0))
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if err := d.ValidateGHD(); err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		if d.Width() < best {
			best = d.Width()
		}
	}
	portfolio, err := Decompose(context.Background(), h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if portfolio.Width() > best {
		t.Fatalf("portfolio width %d worse than best single ordering %d", portfolio.Width(), best)
	}
}

// The empty hypergraph decomposes to the empty decomposition.
func TestGreedyEmpty(t *testing.T) {
	d, err := Decompose(context.Background(), hypergraph.New(), nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != nil {
		t.Fatal("empty hypergraph must yield an empty decomposition")
	}
}

// GreedyCoverCost with a nil model covers each bag with edges and never returns an empty λ for a
// non-empty bag.
func TestGreedyCover(t *testing.T) {
	h := queryHG(t, gen.Q5())
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var bag = h.Edge(rng.Intn(h.NumEdges())).Clone()
		bag.UnionInPlace(h.Edge(rng.Intn(h.NumEdges())))
		lambda := GreedyCoverCost(h, bag, nil)
		if !bag.SubsetOf(h.Vars(lambda)) {
			t.Fatalf("trial %d: bag %v not covered by λ %v", trial, h.VertexNames(bag), h.EdgeNames(lambda))
		}
	}
}

// The acceptance-criterion shape at package level: a 50-atom cyclic CSP
// decomposes in well under a second.
func TestGreedyLargeCSPFast(t *testing.T) {
	h := queryHG(t, gen.RandomCSP(rand.New(rand.NewSource(42)), 30, 50, 3))
	start := time.Now()
	d, err := Decompose(context.Background(), h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("greedy took %v on a 50-atom CSP, want < 1s", elapsed)
	}
	if err := d.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	t.Logf("50-atom CSP: greedy width %d, %d nodes", d.Width(), d.NumNodes())
}

// rowsOnly is a cost model that knows cardinalities and no distinct counts.
func rowsOnly(h *hypergraph.Hypergraph, rows ...float64) *decomp.CostModel {
	return decomp.NewCostModel(h, rows, nil)
}

// GreedyCoverCost must break equal-coverage ties toward the relation with
// the fewest tuples: on a bag coverable by either of two parallel edges,
// the giant loses exactly when statistics are present.
func TestGreedyCoverCostPrefersCheapEdges(t *testing.T) {
	h := hypergraph.New()
	big := h.AddEdge("big", "X", "Y")
	mid := h.AddEdge("mid", "Y", "Z")
	small := h.AddEdge("small", "X", "Y")
	bag := h.Edge(big).Union(h.Edge(mid))

	plain := GreedyCoverCost(h, bag, nil)
	if !plain.Has(big) || plain.Has(small) {
		t.Fatalf("width-only cover should keep the lowest index: %v", plain)
	}
	rows := make([]float64, h.NumEdges())
	rows[big], rows[mid], rows[small] = 100000, 50, 10
	costed := GreedyCoverCost(h, bag, rowsOnly(h, rows...))
	if costed.Has(big) || !costed.Has(small) || !costed.Has(mid) {
		t.Fatalf("cost-aware cover kept the giant: %v", costed)
	}
	if costed.Len() != plain.Len() {
		t.Fatalf("cost awareness changed the cover size: %d vs %d", costed.Len(), plain.Len())
	}
}

// Among equal-coverage candidates of equal cardinality the cover must take
// the one that joins the cover so far over the one that multiplies it, at
// every position the tied edges can have: on the 4-cycle bag {X2,X3,X4},
// beside r2(X2,X3), that is r3(X3,X4) whichever of r1, r3, r4 comes first.
func TestGreedyCoverCostPrefersJoins(t *testing.T) {
	atoms := map[string][2]string{"r1": {"X1", "X2"}, "r2": {"X2", "X3"}, "r3": {"X3", "X4"}, "r4": {"X4", "X1"}}
	for _, order := range [][]string{
		{"r1", "r2", "r3", "r4"}, {"r4", "r3", "r2", "r1"}, {"r1", "r4", "r3", "r2"}, {"r3", "r1", "r4", "r2"},
	} {
		h := hypergraph.New()
		for _, name := range order {
			h.AddEdge(name, atoms[name][0], atoms[name][1])
		}
		rows := []float64{500, 500, 500, 500}
		m := decomp.NewCostModel(h, rows, func(e, v int) float64 { return 200 })
		var bag bitset.Set
		for _, v := range []string{"X2", "X3", "X4"} {
			i, _ := h.VertexIndex(v)
			bag.Add(i)
		}
		cover := GreedyCoverCost(h, bag, m)
		if got := decomp.NodeCost(&decomp.Node{Chi: bag, Lambda: cover}, m); cover.Len() != 2 || got != 500*500/200 {
			t.Errorf("atoms %v: cover %v estimated %g rows, want a 2-edge join of 1250", order, h.EdgeNames(cover), got)
		}
	}
}

// With a cost model, Decompose must keep its width contract while landing
// on a cheaper decomposition than the width-only run.
func TestDecomposeCostTieBreak(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("big", "X1", "X2")
	h.AddEdge("c2", "X2", "X3")
	h.AddEdge("c3", "X3", "X4")
	h.AddEdge("c4", "X4", "X1")
	h.AddEdge("small", "X1", "X2")
	rows := rowsOnly(h, 100000, 1000, 100, 50, 10)

	ctx := context.Background()
	plain, err := Decompose(ctx, h, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	costed, err := Decompose(ctx, h, rows, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if costed.Width() != plain.Width() {
		t.Fatalf("statistics changed the width: %d vs %d", costed.Width(), plain.Width())
	}
	if err := costed.ValidateGHD(); err != nil {
		t.Fatal(err)
	}
	if cc, pc := costed.CostWith(rows), plain.CostWith(rows); cc > pc {
		t.Fatalf("cost-aware decomposition costs %g > width-only %g", cc, pc)
	}
}

// The cheap-edge tie-break must never grow the cover: on this bag the
// cost-greedy first pick (the cheap diagonal edge) would force a 3-edge
// cover where width-only greedy finds 2 — GreedyCoverCost has to detect
// that and keep the smaller cover, so statistics cannot inflate the width.
func TestGreedyCoverCostNeverGrowsCover(t *testing.T) {
	h := hypergraph.New()
	h.AddEdge("e1", "a", "b")
	h.AddEdge("e2", "c", "d")
	h.AddEdge("e3", "a", "c")
	bag := bitset.FromSlice([]int{0, 1, 2, 3})

	plain := GreedyCoverCost(h, bag, nil)
	costed := GreedyCoverCost(h, bag, rowsOnly(h, 1000, 1000, 2))
	if costed.Len() > plain.Len() {
		t.Fatalf("statistics grew the cover: %d edges vs %d", costed.Len(), plain.Len())
	}
	if costed.Len() != 2 {
		t.Fatalf("cover size %d, want 2", costed.Len())
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

// randomModel draws cardinalities and distinct counts for h.
func randomModel(rng *rand.Rand, h *hypergraph.Hypergraph) *decomp.CostModel {
	rows := make([]float64, h.NumEdges())
	for e := range rows {
		rows[e] = float64(1 + rng.Intn(100000))
	}
	return decomp.NewCostModel(h, rows, func(e, v int) float64 {
		return float64(1 + rng.Intn(int(rows[e])))
	})
}

// Over every bag of every family and random statistics, the cost-aware
// cover is a cover and never larger than the plain one, and the cost-aware
// decomposition is a valid GHD no wider and — priced by the same model — no
// dearer than the width-only one.
func TestCostAwareCoverNeverLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for name, h := range families() {
		plain := mustDecompose(t, h)
		for round := 0; round < 3; round++ {
			m := randomModel(rng, h)
			for _, n := range plain.Nodes() {
				cover := GreedyCoverCost(h, n.Chi, m)
				if !n.Chi.SubsetOf(h.Vars(cover)) {
					t.Fatalf("%s: cost-aware λ %v does not cover χ %v", name, h.EdgeNames(cover), h.VertexNames(n.Chi))
				}
				if cover.Len() > GreedyCoverCost(h, n.Chi, nil).Len() {
					t.Fatalf("%s: cost-aware cover of %v grew", name, h.VertexNames(n.Chi))
				}
			}
			costed, err := Decompose(ctx, h, m, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := costed.ValidateGHD(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if costed.Width() > plain.Width() {
				t.Fatalf("%s: statistics widened the decomposition %d → %d", name, plain.Width(), costed.Width())
			}
			if costed.Width() == plain.Width() && costed.CostWith(m) > plain.CostWith(m) {
				t.Fatalf("%s: cost-aware %g dearer than width-only %g", name, costed.CostWith(m), plain.CostWith(m))
			}
		}
	}
}

// Every randomized trial reads its own replay of its seed: the shared
// per-process prefix, then a source it seeds itself. However many trials of
// one seed run at once — concurrent compiles each walk the portfolio on
// their own goroutine — each sees exactly the Intn values of a generator
// seeded afresh, within the prefix and past its end (and for a seed without
// a prefix), the shared prefixes stay untouched, and concurrent walks
// return what a lone one does.
func TestReplayedTieBreaksMatchFreshSources(t *testing.T) {
	const workers = 4
	h := families()["csp50atom"]
	lone := mustDecompose(t, h).String()
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(seeds))
	for w := 0; w < workers; w++ {
		for _, seed := range append([]int64{42}, seeds[1:]...) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				replayed := rand.New(&replay{seed: seed, prefix: prefixes()[seed]})
				fresh, local := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(int64(w)))
				for draw := 0; draw < 2*prefixLen+w; draw++ {
					n := 1 + local.Intn(50)
					if got, want := replayed.Intn(n), fresh.Intn(n); got != want {
						errs <- fmt.Errorf("seed %d, worker %d, draw %d: replayed Intn(%d) = %d, fresh source %d", seed, w, draw, n, got, want)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d, err := Decompose(context.Background(), h, nil, 0, 0); err != nil || d.String() != lone {
				errs <- fmt.Errorf("worker %d: a concurrent walk returned %v, %v; a lone one\n%s", w, d, err, lone)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(prefixes()) != len(seeds)-1 {
		t.Fatalf("%d prefixes for the %d restart seeds", len(prefixes()), len(seeds)-1)
	}
	for seed, prefix := range prefixes() {
		fresh := rand.NewSource(seed)
		for i, v := range prefix {
			if want := fresh.Int63(); v != want {
				t.Fatalf("seed %d: prefix value %d is %d after the replays, fresh source %d", seed, i, v, want)
			}
		}
	}
}

// Without a cost model the engine returns, byte for byte, the
// decompositions it returned before the model existed: digests of
// Decomposition.String() taken at the commit that introduced it.
func TestNilModelDecompositionsUnchanged(t *testing.T) {
	want := map[string]string{
		"Q1": "f91e0296802f0f1a", "Q4": "527072dd4970cdb9", "Q5": "9458ed6279e6519b",
		"classC4": "f98c422ff17fb616", "clique6": "b120f0732d2a2c29", "csp50atom": "03b46f0f45554621",
		"cycle12": "ab923339adb0d17f", "grid44": "930379435c4e5061", "path9": "0cb2123d08d79134",
		"star8": "f4d35db72ace52a7",
	}
	for name, h := range families() {
		d := mustDecompose(t, h)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(d.String())))[:16]; got != want[name] {
			t.Errorf("%s: decomposition digest %s, want %s\n%s", name, got, want[name], d)
		}
	}
}
