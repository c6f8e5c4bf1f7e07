// Experiment benchmarks. BenchmarkE01–E20 regenerate the computational
// content of cmd/hdbench's E1–E20, one figure, example or theorem of the
// paper each; cmd/hdbench prints the same data as human-readable rows,
// paper claim beside measured value. BenchmarkE22, E24 and E25 time the
// engine's own comparisons (greedy vs exact search, fractional covers,
// cost-based planning), whose assertions live in the root tests.
package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hypertree/internal/csp"
	"hypertree/internal/datalog"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hdeval"
	"hypertree/internal/jointree"
	"hypertree/internal/querydecomp"
	"hypertree/internal/treewidth"
	"hypertree/internal/xc3s"
)

// E1 / Fig. 1: join-tree construction for the acyclic Q2.
func BenchmarkE01JoinTreeQ2(b *testing.B) {
	h := QueryHypergraph(gen.Q2())
	for i := 0; i < b.N; i++ {
		if _, ok := jointree.GYO(h); !ok {
			b.Fatal("Q2 acyclic")
		}
	}
}

// E2 / Fig. 2: the width-2 query decomposition search on Q1.
func BenchmarkE02QueryWidthQ1(b *testing.B) {
	h := QueryHypergraph(gen.Q1())
	for i := 0; i < b.N; i++ {
		s, _ := querydecomp.NewSearcher(decomp.NewBudget(context.Background(), 0), h, 2)
		if _, ok := s.Search(); !ok {
			b.Fatal("qw(Q1) = 2")
		}
	}
}

// E3 / Fig. 3: join tree of Q3, via both constructions.
func BenchmarkE03JoinTreeQ3(b *testing.B) {
	h := QueryHypergraph(gen.Q3())
	b.Run("gyo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jointree.GYO(h)
		}
	})
	b.Run("maxspanning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jointree.MaxWeightSpanningTree(h)
		}
	})
}

// E4 / Fig. 4: pure width-2 query decomposition of Q4.
func BenchmarkE04QueryWidthQ4(b *testing.B) {
	h := QueryHypergraph(gen.Q4())
	for i := 0; i < b.N; i++ {
		s, _ := querydecomp.NewSearcher(decomp.NewBudget(context.Background(), 0), h, 2)
		if _, ok := s.Search(); !ok {
			b.Fatal("qw(Q4) = 2")
		}
	}
}

// E5 / Fig. 5: qw(Q5) = 3 — refute width 2 exhaustively, then find width 3.
func BenchmarkE05QueryWidthQ5(b *testing.B) {
	h := QueryHypergraph(gen.Q5())
	b.Run("refute-k2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := querydecomp.NewSearcher(decomp.NewBudget(context.Background(), 0), h, 2)
			if _, ok := s.Search(); ok || !s.Exhausted {
				b.Fatal("Q5 has no width-2 QD")
			}
		}
	})
	b.Run("find-k3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := querydecomp.NewSearcher(decomp.NewBudget(context.Background(), 0), h, 3)
			if _, ok := s.Search(); !ok {
				b.Fatal("qw(Q5) = 3")
			}
		}
	})
}

// E6 / Fig. 6: hypertree decompositions of Q1 (width 2) and Q5 (width 2).
func BenchmarkE06HypertreeWidth(b *testing.B) {
	for _, tc := range []struct {
		name string
		q    *Query
		hw   int
	}{{"Q1", gen.Q1(), 2}, {"Q5", gen.Q5(), 2}} {
		h := QueryHypergraph(tc.q)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, _ := decomp.Width(h)
				if w != tc.hw {
					b.Fatalf("hw = %d", w)
				}
			}
		})
	}
}

// E8 / Fig. 8, Lemma 4.6: transforming ⟨Q5, DB, HD⟩ into the acyclic
// instance and evaluating it, as a function of database size r.
func BenchmarkE08Lemma46(b *testing.B) {
	q := gen.Q5()
	_, d := HypergraphWidth(QueryHypergraph(q))
	eval, err := hdeval.NewEvaluator(q, d, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{50, 100, 200} {
		db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, r, 16)
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Root(context.Background(), db, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 / Fig. 9, Theorem 5.4: normal-form computation.
func BenchmarkE09NormalForm(b *testing.B) {
	q := gen.Q5()
	_, d := HypergraphWidth(QueryHypergraph(q))
	dup := d.Complete() // a valid but redundant (non-NF) decomposition
	for i := 0; i < b.N; i++ {
		nf := decomp.Normalize(dup)
		if err := nf.CheckNormalForm(); err != nil {
			b.Fatal(err)
		}
	}
}

// E10 / Fig. 10, Theorem 5.14: the k-decomp decision procedure across the
// query families, sequential.
func BenchmarkE10KDecomp(b *testing.B) {
	for _, tc := range []struct {
		name string
		q    *Query
		k    int
	}{
		{"cycle12-k2", gen.Cycle(12), 2},
		{"grid3x3-k2", gen.Grid(3, 3), 2},
		{"grid4x4-k3", gen.Grid(4, 4), 3},
		{"q5-k2", gen.Q5(), 2},
	} {
		h := QueryHypergraph(tc.q)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !decomp.Decide(h, tc.k) {
					b.Fatalf("hw ≤ %d expected", tc.k)
				}
			}
		})
	}
}

// E11 / Fig. 11, Theorem 3.4: building the reduction query and the Fig. 11
// decomposition from an exact cover.
func BenchmarkE11Reduction(b *testing.B) {
	ins := xc3s.RunningExample()
	cover, _ := ins.Solve()
	for i := 0; i < b.N; i++ {
		red, err := xc3s.Build(ins)
		if err != nil {
			b.Fatal(err)
		}
		d, err := red.DecompositionFromCover(cover)
		if err != nil {
			b.Fatal(err)
		}
		if err := querydecomp.Validate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// E12 / Theorem 4.5: acyclicity test vs width-1 decision on random inputs.
func BenchmarkE12AcyclicHW1(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	queries := make([]*Hypergraph, 64)
	for i := range queries {
		queries[i] = QueryHypergraph(gen.RandomQuery(rng, 6, 6, 3))
	}
	b.Run("gyo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			jointree.IsAcyclic(queries[i%len(queries)])
		}
	})
	b.Run("kdecomp-k1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			decomp.Decide(queries[i%len(queries)], 1)
		}
	})
}

// E13 / Theorem 6.1: hw ≤ qw measurement across the example corpus.
func BenchmarkE13HwLeQw(b *testing.B) {
	hs := []*Hypergraph{
		QueryHypergraph(gen.Q1()), QueryHypergraph(gen.Q4()), QueryHypergraph(gen.Q5()),
	}
	for i := 0; i < b.N; i++ {
		h := hs[i%len(hs)]
		hw, _ := decomp.Width(h)
		qw, _ := querydecomp.Width(h, hw)
		if hw > qw {
			b.Fatal("Theorem 6.1a violated")
		}
	}
}

// E14 / Theorem 6.2: the series over n for the class C_n — hw stays 1 while
// the incidence treewidth grows as n.
func BenchmarkE14ClassCn(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		h := QueryHypergraph(gen.ClassCn(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !decomp.Decide(h, 1) {
					b.Fatal("hw(Cn) = 1")
				}
				ub, lb, _ := treewidth.IncidenceTreewidth(h)
				if ub != n || lb != n {
					b.Fatalf("tw bounds [%d,%d], want %d", lb, ub, n)
				}
			}
		})
	}
}

// E15 / Theorems 4.7: Boolean evaluation of the cyclic 6-cycle query —
// hypertree decomposition versus naive join, as the database grows.
func BenchmarkE15Eval(b *testing.B) {
	// Note the shape: at r=100 the naive join is still cheaper (the HD pays
	// the r^k node materialisation), by r=400 the naive intermediates have
	// blown past it by an order of magnitude, and beyond (r ≳ 1600, not run
	// here) the naive join exhausts memory while the HD strategy stays
	// polynomial — the Theorem 4.7 shape.
	q := gen.Cycle(6)
	plan, err := Compile(q, WithStrategy(StrategyHypertree))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{100, 200, 400} {
		db := gen.RandomDatabase(rand.New(rand.NewSource(2)), q, r, 32)
		b.Run(fmt.Sprintf("hd/r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.ExecuteBoolean(context.Background(), db); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hdeval.NaiveJoin(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E16 / Appendix B: the Datalog program deciding hw(Q1) ≤ 2 under the
// well-founded semantics.
func BenchmarkE16Datalog(b *testing.B) {
	h := QueryHypergraph(gen.Q1())
	for i := 0; i < b.N; i++ {
		hp, err := datalog.NewHWProgram(h, 2)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := hp.Decide()
		if err != nil || !ok {
			b.Fatalf("Appendix B: ok=%v err=%v", ok, err)
		}
	}
}

// E17 / Section 6: all width measures side by side on the C_5 query.
func BenchmarkE17Methods(b *testing.B) {
	h := QueryHypergraph(gen.ClassCn(5))
	for i := 0; i < b.N; i++ {
		m := csp.Measure(h)
		hw, _ := decomp.Width(h)
		if hw != 1 || m.TreeClustering < 5 {
			b.Fatalf("unexpected widths: hw=%d %+v", hw, m)
		}
	}
}

// E18 / Section 2.2: parallel versus sequential decomposition search on a
// wider instance (speedup factor is hardware-dependent).
func BenchmarkE18Parallel(b *testing.B) {
	h := QueryHypergraph(gen.Grid(3, 4))
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := decomp.Search(decomp.NewBudget(context.Background(), 0), h, 3, workers); err != nil {
					b.Fatal("grid 3x4 has hw ≤ 3")
				}
			}
		})
	}
}

// E19 / Lemma 7.3: strict (m,2)-3PS construction and verification.
func BenchmarkE19ThreePS(b *testing.B) {
	b.Run("construct-m32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xc3s.NewStrictThreePS(32, 2)
		}
	})
	b.Run("verify-m8", func(b *testing.B) {
		ps := xc3s.NewStrictThreePS(8, 2)
		for i := 0; i < b.N; i++ {
			if err := ps.IsStrict(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E20 / Theorem 4.8: output-polynomial enumeration — time versus output
// size on a star query whose answer grows linearly with the database.
func BenchmarkE20OutputPoly(b *testing.B) {
	q := MustParseQuery(`ans(X1, X2, X3) :- r1(C, X1), r2(C, X2), r3(C, X3).`)
	plan, err := Compile(q, WithStrategy(StrategyAcyclic))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{100, 400, 1600} {
		db := gen.RandomDatabase(rand.New(rand.NewSource(3)), q, r, r) // sparse: output ~ r
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(context.Background(), db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E22: the greedy GHD engine versus the exact k-decomp search — compile
// time at equal instances, plus greedy-only scaling on CSPs the exact
// search cannot finish (TestGreedyWidthNeverBeatsExact pins the width side
// of the same comparison).
func BenchmarkE22GreedyGHD(b *testing.B) {
	grid := QueryHypergraph(gen.Grid(4, 4))
	ctx := context.Background()
	b.Run("exact/grid4x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if w, _ := decomp.Width(grid); w != 3 {
				b.Fatalf("hw = %d", w)
			}
		}
	})
	b.Run("greedy/grid4x4", func(b *testing.B) {
		d := GreedyDecomposer()
		for i := 0; i < b.N; i++ {
			dec, err := d.Decompose(ctx, grid, DecomposeRequest{})
			if err != nil || dec.Width() != 3 {
				b.Fatalf("greedy width %d, err %v", dec.Width(), err)
			}
		}
	})
	for _, size := range []struct{ nv, ne int }{{30, 50}, {60, 100}, {120, 200}} {
		h := QueryHypergraph(gen.RandomCSP(rand.New(rand.NewSource(8)), size.nv, size.ne, 3))
		b.Run(fmt.Sprintf("greedy/csp-%datoms", size.ne), func(b *testing.B) {
			d := GreedyDecomposer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decompose(ctx, h, DecomposeRequest{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The auto race as a plan-cache miss pays it: a fixed set of families
// compiled from scratch under WithAutoStrategy, each racing the exact
// entrant against one walk of the greedy shape portfolio that yields the
// fhd and ghd candidates. Allocations are reported beside the time; the
// plan_churn ledger workload is the end-to-end number.
func BenchmarkAutoRaceCold(b *testing.B) {
	queries := []*Query{
		gen.Q1(), gen.Q4(), gen.Q5(), gen.Path(6), gen.Cycle(6), gen.Grid(3, 3),
		gen.CliqueBinary(5), gen.ClassCn(4),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy()); err != nil {
				b.Fatalf("%s: %v", q, err)
			}
		}
	}
}

// Ablation: parallel per-node materialisation (hdeval.Evaluator.Root's workers) against
// the sequential build on a decomposition with many independent nodes.
func BenchmarkAblationParallelMaterialise(b *testing.B) {
	q := gen.Cycle(12)
	plan, err := Compile(q, WithStrategy(StrategyHypertree))
	if err != nil {
		b.Fatal(err)
	}
	db := gen.RandomDatabase(rand.New(rand.NewSource(5)), q, 600, 32)
	ctx := context.Background()
	eval, err := hdeval.NewEvaluator(q, plan.Decomposition(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Root(ctx, db, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Root(ctx, db, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Theorem 4.7 amortisation: executing a precompiled Plan versus paying the
// decomposition search on every call, and versus the plan cache. The
// separation grows with the hardness of the query's width search relative
// to the database size — the binary 7-clique (hw = 4) makes the per-call
// search clearly visible next to a small database.
func BenchmarkPlanReuse(b *testing.B) {
	q := gen.CliqueBinary(7)
	db := gen.RandomDatabase(rand.New(rand.NewSource(9)), q, 16, 8)
	ctx := context.Background()
	opts := []CompileOption{WithStrategy(StrategyHypertree)}
	b.Run("compile-once-execute", func(b *testing.B) {
		plan, err := Compile(q, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.ExecuteBoolean(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-per-call", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := Compile(q, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.ExecuteBoolean(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-compile-per-call", func(b *testing.B) {
		cache := NewPlanCache(16)
		for i := 0; i < b.N; i++ {
			plan, err := cache.Compile(ctx, q, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plan.ExecuteBoolean(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E24: the fractional engine (TestFractionalWidthBeatsGreedyOnClique and
// TestPropertyFractionalAgreesWithExact pin the width side) —
// LP-priced bag covers against the greedy integral covers at compile time,
// plus the adaptive race end to end. The LP pricing adds one small simplex
// solve per bag on top of the greedy shape search.
func BenchmarkE24Fractional(b *testing.B) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		q    *Query
	}{
		{"clique5", gen.CliqueBinary(5)},
		{"clique7", gen.CliqueBinary(7)},
		{"csp-50atoms", gen.RandomCSP(rand.New(rand.NewSource(24)), 30, 50, 3)},
	} {
		h := QueryHypergraph(tc.q)
		b.Run("ghd/"+tc.name, func(b *testing.B) {
			d := GreedyDecomposer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decompose(ctx, h, DecomposeRequest{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fhd/"+tc.name, func(b *testing.B) {
			d := FractionalDecomposer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Decompose(ctx, h, DecomposeRequest{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("auto-race/clique5", func(b *testing.B) {
		q := gen.CliqueBinary(5)
		for i := 0; i < b.N; i++ {
			p, err := Compile(q, WithStrategy(StrategyHypertree), WithAutoStrategy())
			if err != nil {
				b.Fatal(err)
			}
			if p.DecomposerName() != "auto(fhd)" {
				b.Fatalf("winner %q", p.DecomposerName())
			}
		}
	})
}

// E25: cost-based versus width-only planning on a skewed database — the
// same auto race, with and without statistics, executing the plan it
// picked. Width ties at 2 on gen.CostSeparationQuery, so the entire
// separation is the cost model steering the λ placements away from the
// giant relation (TestCostBasedAutoBeatsWidthOnly pins the widths, the
// estimates and the answers).
func BenchmarkE25CostBased(b *testing.B) {
	q := gen.CostSeparationQuery()
	db := gen.SkewedSizeDatabase(rand.New(rand.NewSource(25)), q, 2_000, 250, 3)
	st := CollectStats(db)
	ctx := context.Background()
	compile := func(b *testing.B, opts ...CompileOption) *Plan {
		opts = append([]CompileOption{
			WithStrategy(StrategyHypertree),
			WithAutoStrategy(),
			WithStepBudget(200_000),
		}, opts...)
		p, err := Compile(q, opts...)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("width-only", func(b *testing.B) {
		p := compile(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Execute(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cost-based", func(b *testing.B) {
		p := compile(b, WithCostModel(st))
		if p.EstimatedCost() <= 0 {
			b.Fatal("cost-based plan carries no estimate")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Execute(ctx, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile-with-stats-collection", func(b *testing.B) {
		// the full cost-based compile path including sampled collection —
		// what qeval -stats pays per query
		for i := 0; i < b.N; i++ {
			p, err := Compile(q,
				WithStrategy(StrategyHypertree),
				WithAutoStrategy(),
				WithStepBudget(200_000),
				WithStats(db))
			if err != nil {
				b.Fatal(err)
			}
			_ = p
		}
	})
}

// The Boolean descent's worst case: a path r1(X1,X2), r2(X2,X3), r3(X3,X4)
// over 3 × 15 000 rows on which every partial path dies at its last edge.
// "false" has no witness at all; "last-root-row" adds one path whose
// constants are interned last, so its row sorts last in every table and the
// descent reaches it only after refuting every other root row. Each
// iteration is one warm ExecuteBoolean. Both cases cost the descent
// O(Σ rows) lookups, the bound of a bottom-up semijoin pass over the same
// tables.
func BenchmarkBooleanWorstCase(b *testing.B) {
	const n = 15_000
	for _, witness := range []bool{false, true} {
		db := NewDatabase()
		for i := range n {
			db.AddFact("r1", fmt.Sprint("a", i), fmt.Sprint("b", i))
			db.AddFact("r2", fmt.Sprint("b", i), fmt.Sprint("c", i))
			db.AddFact("r3", fmt.Sprint("z", i), fmt.Sprint("d", i))
		}
		name := "false"
		if witness {
			name = "last-root-row"
			db.AddFact("r1", "aw", "bw")
			db.AddFact("r2", "bw", "cw")
			db.AddFact("r3", "cw", "dw")
		}
		plan, err := Compile(MustParseQuery("r1(X1, X2), r2(X2, X3), r3(X3, X4)"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := plan.ExecuteBoolean(context.Background(), db); err != nil || ok != witness {
					b.Fatalf("ExecuteBoolean = %v, %v; want %v", ok, err, witness)
				}
			}
		})
	}
}
