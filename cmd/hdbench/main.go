// Command hdbench regenerates the E1–E30 experiments (the figures, lemmas
// and theorems of the paper, plus the engine's plan-quality checks; see
// docs/ARCHITECTURE.md) and prints paper-claim versus measured rows. Run
// all experiments or a selection:
//
//	hdbench            # everything
//	hdbench E5 E14     # a selection
//	hdbench -smoke     # CI mode: scaled-down data, same assertions
//	hdbench -json PATH # also write a machine-readable result record
//
// -smoke shrinks the heavy databases of E23 and E25–E29 (and
// skips their wall-clock assertions, meaningless at toy scale) so the whole
// suite runs in CI on every push — experiments cannot bit-rot unnoticed.
// E30 asserts row counts only and runs at one scale.
//
// -json writes one record per executed experiment (id, title, pass/fail,
// error, wall time) plus run metadata to the given path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"hypertree"
	"hypertree/internal/csp"
	"hypertree/internal/datalog"
	"hypertree/internal/decomp"
	"hypertree/internal/gen"
	"hypertree/internal/hdeval"
	"hypertree/internal/jointree"
	"hypertree/internal/querydecomp"
	"hypertree/internal/treewidth"
	"hypertree/internal/xc3s"
	"hypertree/internal/yannakakis"
)

type experiment struct {
	id    string
	title string
	run   func() error
}

// smoke selects CI scale: small enough to run on every push, identical
// correctness assertions (wall-clock-only assertions are skipped).
var smoke bool

// benchRecord is one experiment's row in the -json report.
type benchRecord struct {
	ID       string  `json:"id"`
	Title    string  `json:"title"`
	Pass     bool    `json:"pass"`
	Error    string  `json:"error,omitempty"`
	Millis   float64 `json:"millis"`
	Smoke    bool    `json:"smoke"`
	Maxprocs int     `json:"gomaxprocs"`
}

// benchReport is the full -json payload: run metadata plus one record per
// executed experiment.
type benchReport struct {
	Smoke       bool          `json:"smoke"`
	Maxprocs    int           `json:"gomaxprocs"`
	Failed      int           `json:"failed"`
	Experiments []benchRecord `json:"experiments"`
}

func main() {
	var jsonPath string
	flag.BoolVar(&smoke, "smoke", false, "CI scale: shrink the heavy experiments, keep the assertions")
	flag.StringVar(&jsonPath, "json", "", "write a machine-readable result record to this path")
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	report := benchReport{Smoke: smoke, Maxprocs: runtime.GOMAXPROCS(0)}
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		rec := benchRecord{ID: e.id, Title: e.title, Pass: true, Smoke: smoke, Maxprocs: report.Maxprocs}
		t0 := time.Now()
		if err := e.run(); err != nil {
			fmt.Printf("  FAILED: %v\n", err)
			rec.Pass, rec.Error = false, err.Error()
			report.Failed++
		}
		rec.Millis = float64(time.Since(t0).Microseconds()) / 1000
		report.Experiments = append(report.Experiments, rec)
		fmt.Println()
	}
	if jsonPath != "" {
		out, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdbench: writing -json:", err)
			os.Exit(1)
		}
	}
	if report.Failed > 0 {
		os.Exit(1)
	}
}

func hg(q *hypertree.Query) *hypertree.Hypergraph { return hypertree.QueryHypergraph(q) }

var experiments = []experiment{
	{"E1", "Fig. 1 — join tree of Q2; Q1 has none", func() error {
		if _, ok := jointree.GYO(hg(gen.Q1())); ok {
			return fmt.Errorf("Q1 must be cyclic")
		}
		t, ok := jointree.GYO(hg(gen.Q2()))
		if !ok {
			return fmt.Errorf("Q2 must be acyclic")
		}
		fmt.Printf("  paper: Q2 acyclic, Q1 cyclic; measured: same. Q2 join tree:\n%s", indent(t.String()))
		return nil
	}},
	{"E2", "Fig. 2 — qw(Q1) = 2", func() error { return qwRow(gen.Q1(), "Q1", 2) }},
	{"E3", "Fig. 3 — join tree of Q3 (two constructions)", func() error {
		h := hg(gen.Q3())
		t1, ok := jointree.GYO(h)
		if !ok {
			return fmt.Errorf("Q3 must be acyclic")
		}
		t2 := jointree.MaxWeightSpanningTree(h)
		if err := jointree.Validate(h, t2); err != nil {
			return err
		}
		fmt.Printf("  GYO and max-weight spanning tree both yield valid join trees (%d nodes)\n", len(t1.Parent))
		return nil
	}},
	{"E4", "Fig. 4 — qw(Q4) = 2 (pure)", func() error { return qwRow(gen.Q4(), "Q4", 2) }},
	{"E5", "Fig. 5 — qw(Q5) = 3, no width-2 QD", func() error {
		h := hg(gen.Q5())
		s := querydecomp.NewSearcher(h, 2)
		if _, ok := s.Search(); ok || !s.Exhausted {
			return fmt.Errorf("width-2 refutation failed")
		}
		fmt.Printf("  width 2 refuted exhaustively in %d steps\n", s.Steps)
		return qwRow(gen.Q5(), "Q5", 3)
	}},
	{"E6", "Fig. 6 — hw(Q1) = 2, hw(Q5) = 2", func() error {
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
			want int
		}{{"Q1", gen.Q1(), 2}, {"Q5", gen.Q5(), 2}} {
			plan, err := hypertree.Compile(tc.q, hypertree.WithStrategy(hypertree.StrategyHypertree))
			if err != nil {
				return err
			}
			d := plan.Decomposition()
			nf := "yes"
			if d.CheckNormalForm() != nil {
				nf = "no"
			}
			fmt.Printf("  %s: paper hw=%d, measured hw=%d (valid, NF=%s, %d nodes)\n", tc.name, tc.want, plan.Width(), nf, d.NumNodes())
			if plan.Width() != tc.want {
				return fmt.Errorf("%s width mismatch", tc.name)
			}
		}
		return nil
	}},
	{"E7", "Fig. 7 — atom representation of HD5", func() error {
		q := gen.Q5()
		plan, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyHypertree))
		if err != nil {
			return err
		}
		fmt.Print(indent(hypertree.AtomRepresentation(q, plan.Decomposition())))
		return nil
	}},
	{"E8", "Fig. 8 / Lemma 4.6 — HD → acyclic instance, size O(r^k)", func() error {
		q := gen.Q5()
		_, d, _ := hypertree.HypertreeWidth(q)
		eval, err := hdeval.NewEvaluator(q, d, nil)
		if err != nil {
			return err
		}
		for _, r := range []int{50, 100, 200} {
			db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, r, 16)
			start := time.Now()
			root, err := eval.Root(context.Background(), db)
			if err != nil {
				return err
			}
			maxRows := 0
			var walk func(n *yannakakis.Node)
			walk = func(n *yannakakis.Node) {
				maxRows = max(maxRows, n.Rows())
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(root)
			fmt.Printf("  r=%4d: max node table %7d rows (bound r^2 = %7d), built in %v\n",
				r, maxRows, r*r, time.Since(start).Round(time.Microsecond))
			if maxRows > r*r {
				return fmt.Errorf("size bound violated")
			}
		}
		return nil
	}},
	{"E9", "Fig. 9 / Thm. 5.4 — normalisation preserves width", func() error {
		q := gen.Q5()
		_, d, _ := hypertree.HypertreeWidth(q)
		red := d.Complete()
		nf := decomp.Normalize(red)
		fmt.Printf("  redundant: %d nodes (width %d) → NF: %d nodes (width %d)\n",
			red.NumNodes(), red.Width(), nf.NumNodes(), nf.Width())
		if nf.Width() > red.Width() || nf.CheckNormalForm() != nil {
			return fmt.Errorf("normalisation broken")
		}
		return nil
	}},
	{"E10", "Fig. 10 / Thm. 5.14 — k-decomp decision procedure", func() error {
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
			hw   int
		}{
			{"cycle(12)", gen.Cycle(12), 2},
			{"grid(4,4)", gen.Grid(4, 4), 3},
			{"clique(5)", gen.CliqueBinary(5), 3},
			{"Q5", gen.Q5(), 2},
		} {
			h := hg(tc.q)
			dec := decomp.NewDecider(h, tc.hw)
			start := time.Now()
			ok := dec.Decide()
			below := decomp.Decide(h, tc.hw-1)
			fmt.Printf("  %-10s hw=%d: accept(k=hw)=%v reject(k=hw-1)=%v  [%d subproblems, %d guesses, %v]\n",
				tc.name, tc.hw, ok, !below, dec.Calls, dec.GuessOps, time.Since(start).Round(time.Microsecond))
			if !ok || below {
				return fmt.Errorf("%s: width decision wrong", tc.name)
			}
		}
		return nil
	}},
	{"E11", "Fig. 11 / Thm. 3.4 — XC3S reduction", func() error {
		ins := xc3s.RunningExample()
		red, err := xc3s.Build(ins)
		if err != nil {
			return err
		}
		cover, ok := ins.Solve()
		if !ok {
			return fmt.Errorf("Ie is positive")
		}
		d, err := red.DecompositionFromCover(cover)
		if err != nil {
			return err
		}
		if err := querydecomp.Validate(d); err != nil {
			return err
		}
		fmt.Printf("  positive Ie: cover %v → valid width-%d query decomposition (%d atoms in Q(Ie))\n",
			cover, d.Width(), red.H.NumEdges())
		neg := xc3s.Instance{R: 3, D: [][3]int{}}
		nred, _ := xc3s.Build(neg)
		w, _ := decomp.Width(nred.H)
		fmt.Printf("  negative (degenerate): hw=%d ⇒ qw ≥ %d > 4 by Thm. 6.1a\n", w, w)
		if w <= 4 {
			return fmt.Errorf("negative instance should exceed width 4")
		}
		return nil
	}},
	{"E12", "Thm. 4.5 — acyclic ⟺ hw = 1 (random corpus)", func() error {
		rng := rand.New(rand.NewSource(7))
		agree := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			h := hg(gen.RandomQuery(rng, 2+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(3)))
			if jointree.IsAcyclic(h) == decomp.Decide(h, 1) {
				agree++
			}
		}
		fmt.Printf("  %d/%d random queries agree (GYO vs k-decomp at k=1)\n", agree, trials)
		if agree != trials {
			return fmt.Errorf("disagreement found")
		}
		return nil
	}},
	{"E13", "Thm. 6.1 — hw ≤ qw; hw(Q5) < qw(Q5)", func() error {
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
		}{{"Q1", gen.Q1()}, {"Q4", gen.Q4()}, {"Q5", gen.Q5()}} {
			h := hg(tc.q)
			hw, _ := decomp.Width(h)
			qw, _ := querydecomp.Width(h, hw)
			fmt.Printf("  %s: hw=%d qw=%d\n", tc.name, hw, qw)
			if hw > qw {
				return fmt.Errorf("Theorem 6.1a violated on %s", tc.name)
			}
		}
		return nil
	}},
	{"E14", "Thm. 6.2 — class C_n series", func() error {
		fmt.Println("  n | hw | qw | incidence-tw")
		for _, n := range []int{2, 4, 6, 8} {
			h := hg(gen.ClassCn(n))
			hw, _ := decomp.Width(h)
			qw, _ := querydecomp.Width(h, hw)
			ub, lb, _ := treewidth.IncidenceTreewidth(h)
			fmt.Printf("  %d |  %d |  %d | [%d, %d]\n", n, hw, qw, lb, ub)
			if hw != 1 || qw != 1 || ub != n {
				return fmt.Errorf("series broken at n=%d", n)
			}
		}
		return nil
	}},
	{"E15", "Thm. 4.7 — HD evaluation vs naive join on cycle(6)", func() error {
		q := gen.Cycle(6)
		plan, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyHypertree))
		if err != nil {
			return err
		}
		fmt.Println("  r | hd | naive")
		for _, r := range []int{100, 200, 400} {
			db := gen.RandomDatabase(rand.New(rand.NewSource(2)), q, r, 32)
			t0 := time.Now()
			if _, err := plan.ExecuteBoolean(context.Background(), db); err != nil {
				return err
			}
			hdT := time.Since(t0)
			t1 := time.Now()
			if _, err := hdeval.NaiveJoin(db, q); err != nil {
				return err
			}
			fmt.Printf("  %4d | %10v | %10v\n", r, hdT.Round(time.Microsecond), time.Since(t1).Round(time.Microsecond))
		}
		fmt.Println("  expected shape: naive grows super-linearly and overtakes hd by r≈400")
		return nil
	}},
	{"E16", "Appendix B — Datalog program vs k-decomp", func() error {
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
		}{{"Q1", gen.Q1()}, {"Q4", gen.Q4()}, {"triangle", gen.Cycle(3)}} {
			h := hg(tc.q)
			for k := 1; k <= 2; k++ {
				hp, err := datalog.NewHWProgram(h, k)
				if err != nil {
					return err
				}
				got, err := hp.Decide()
				if err != nil {
					return err
				}
				want := decomp.Decide(h, k)
				fmt.Printf("  %-8s k=%d: datalog=%v kdecomp=%v\n", tc.name, k, got, want)
				if got != want {
					return fmt.Errorf("disagreement")
				}
			}
		}
		return nil
	}},
	{"E17", "§6 — width measures across methods", func() error {
		fmt.Println("  query      | bicon | cutset+1 | treeclust | primal-tw | incid-tw | qw | hw")
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
		}{
			{"path(6)", gen.Path(6)},
			{"cycle(8)", gen.Cycle(8)},
			{"C_5", gen.ClassCn(5)},
			{"Q5", gen.Q5()},
		} {
			h := hg(tc.q)
			m := csp.Measure(h)
			hw, _ := decomp.Width(h)
			qw, _ := querydecomp.Width(h, hw)
			fmt.Printf("  %-10s | %5d | %8d | %9d | %9d | %8d | %2d | %2d\n",
				tc.name, m.Biconnected, m.CutsetSize+1, m.TreeClustering, m.PrimalTW, m.IncidenceTW, qw, hw)
		}
		fmt.Println("  expected shape: hw is minimal everywhere; on C_5 every graph measure degrades")
		return nil
	}},
	{"E18", "§2.2 — parallel vs sequential decomposition search", func() error {
		h := hg(gen.Grid(3, 4))
		t0 := time.Now()
		if !decomp.Decide(h, 3) {
			return fmt.Errorf("grid(3,4) has hw ≤ 3")
		}
		seq := time.Since(t0)
		t1 := time.Now()
		if !decomp.ParallelDecide(h, 3, 0) {
			return fmt.Errorf("parallel disagrees")
		}
		par := time.Since(t1)
		fmt.Printf("  sequential %v, parallel(%d workers) %v\n", seq.Round(time.Microsecond), runtime.GOMAXPROCS(0), par.Round(time.Microsecond))
		return nil
	}},
	{"E19", "Lemma 7.3 — strict (m,k)-3PS construction", func() error {
		for _, mk := range [][2]int{{4, 2}, {8, 2}, {16, 2}} {
			t0 := time.Now()
			ps := xc3s.NewStrictThreePS(mk[0], mk[1])
			build := time.Since(t0)
			if err := ps.IsStrict(); err != nil {
				return err
			}
			fmt.Printf("  (m=%2d, k=%d): base %3d elements, built in %v, strictness verified\n",
				mk[0], mk[1], ps.Base, build.Round(time.Microsecond))
		}
		return nil
	}},
	{"E20", "Thm. 4.8 — output-polynomial enumeration", func() error {
		q := hypertree.MustParseQuery(`ans(X1, X2, X3) :- r1(C, X1), r2(C, X2), r3(C, X3).`)
		plan, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyAcyclic))
		if err != nil {
			return err
		}
		fmt.Println("  r | output rows | time")
		for _, r := range []int{200, 800, 3200} {
			db := gen.RandomDatabase(rand.New(rand.NewSource(3)), q, r, r)
			t0 := time.Now()
			out, err := plan.Execute(context.Background(), db)
			if err != nil {
				return err
			}
			fmt.Printf("  %5d | %11d | %v\n", r, out.Rows(), time.Since(t0).Round(time.Microsecond))
		}
		fmt.Println("  expected shape: time grows with input+output, not with the r³ cross product")
		return nil
	}},
	{"E21", "Thm. 4.7 — compile-once plan amortisation", func() error {
		q := gen.Cycle(6)
		t0 := time.Now()
		plan, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyHypertree))
		if err != nil {
			return err
		}
		compile := time.Since(t0)
		fmt.Printf("  compiled %s in %v\n", plan, compile.Round(time.Microsecond))
		ctx := context.Background()
		for i, seed := range []int64{2, 3, 4} {
			db := gen.RandomDatabase(rand.New(rand.NewSource(seed)), q, 200, 32)
			t1 := time.Now()
			ok, err := plan.ExecuteBoolean(ctx, db)
			if err != nil {
				return err
			}
			fmt.Printf("  db%d: %-5v in %v (no new decomposition search)\n",
				i+1, ok, time.Since(t1).Round(time.Microsecond))
		}
		cache := hypertree.NewPlanCache(8)
		for i := 0; i < 3; i++ {
			if _, err := cache.Compile(ctx, q, hypertree.WithStrategy(hypertree.StrategyHypertree)); err != nil {
				return err
			}
		}
		m := cache.Metrics()
		fmt.Printf("  plan cache over 3 identical compiles: %d hit(s), %d miss(es)\n", m.Hits, m.Misses)
		if m.Misses != 1 || m.Hits != 2 {
			return fmt.Errorf("cache should compile once")
		}
		return nil
	}},
	{"E22", "Greedy GHD vs exact k-decomp — compile time and achieved width", func() error {
		// The first decomposition benchmark (E1–E21 measure reuse and
		// evaluation): heuristic versus exact search on growing hypergraphs.
		// The exact search runs under a step budget; "—" marks exhaustion.
		const budget = 200000
		fmt.Println("  instance        | atoms | exact hw (time)      | greedy ghw (time)")
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
		}{
			{"cycle(16)", gen.Cycle(16)},
			{"grid(4,4)", gen.Grid(4, 4)},
			{"clique(7)", gen.CliqueBinary(7)},
			{"csp(20,35)", gen.RandomCSP(rand.New(rand.NewSource(8)), 20, 35, 3)},
			{"csp(30,50)", gen.RandomCSP(rand.New(rand.NewSource(8)), 30, 50, 3)},
		} {
			exactCol := "        —         "
			t0 := time.Now()
			exact, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithStepBudget(budget))
			exactT := time.Since(t0)
			switch {
			case err == nil:
				exactCol = fmt.Sprintf("%2d (%v)", exact.Width(), exactT.Round(time.Microsecond))
			case errors.Is(err, hypertree.ErrStepBudget):
				exactCol = fmt.Sprintf(" — (budget, %v)", exactT.Round(time.Millisecond))
			default:
				return err
			}
			t1 := time.Now()
			greedy, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithDecomposer(hypertree.GreedyDecomposer()),
				hypertree.WithStepBudget(budget))
			if err != nil {
				return fmt.Errorf("%s greedy: %w", tc.name, err)
			}
			greedyT := time.Since(t1)
			fmt.Printf("  %-15s | %5d | %-20s | %2d (%v)\n",
				tc.name, len(tc.q.Atoms), exactCol, greedy.Width(), greedyT.Round(time.Microsecond))
			if err == nil && exact != nil && greedy.Width() < exact.Width() &&
				hypertree.ValidateHD(greedy.Decomposition()) == nil {
				return fmt.Errorf("%s: greedy HD beats the exact optimum", tc.name)
			}
		}
		fmt.Println("  expected shape: greedy stays in the microsecond-to-millisecond range at")
		fmt.Println("  every size and matches the exact width on the structured families; the")
		fmt.Println("  exact search exhausts its budget on the 50-atom CSPs")
		return nil
	}},
	{"E23", "Sharded vs single-DB λ-join materialisation (Thm. 4.7 data complexity)", func() error {
		// The data-complexity experiment: one fixed width-2 plan, one
		// multi-million-tuple database, and the same Boolean evaluation
		// single-path versus partition-parallel (Plan.ExecuteBooleanSharded).
		// Sharding must never change answers; the wall-clocks are reported
		// side by side, not asserted — a warm single-DB execution takes all
		// its encodings from the plan's cache, while the sharded path binds
		// and encodes its pivot fragments on every execution, so which side
		// wins depends on the cores available to the scatter. Each row
		// reports the one-off partitioning cost separately: partitions are
		// built once and amortised across every query that executes against
		// them.
		// cycle(3): every λ pair of the width-2 decomposition shares a
		// variable, so node materialisation is a genuine (output-heavy)
		// join, not a cross product.
		q := gen.Cycle(3)
		rows, domain := 800_000, 400_000
		if smoke {
			rows, domain = 40_000, 20_000
		}
		t0 := time.Now()
		db := gen.LargeRandomDatabase(rand.New(rand.NewSource(23)), q, rows, domain)
		tuples := 0
		for _, name := range db.RelationNames() {
			tuples += db.Relation(name).Rows()
		}
		fmt.Printf("  database: %d relations, %d tuples (built in %v)\n",
			len(db.RelationNames()), tuples, time.Since(t0).Round(time.Millisecond))

		plan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithWorkers(runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		ctx := context.Background()
		bestOf := func(n int, f func() error) (time.Duration, error) {
			best := time.Duration(1<<63 - 1)
			for i := 0; i < n; i++ {
				t := time.Now()
				if err := f(); err != nil {
					return 0, err
				}
				if d := time.Since(t); d < best {
					best = d
				}
			}
			return best, nil
		}
		var single bool
		singleT, err := bestOf(2, func() (err error) {
			single, err = plan.ExecuteBoolean(ctx, db)
			return
		})
		if err != nil {
			return err
		}
		fmt.Printf("  single-DB: %v in %v (parallel node materialisation, %d workers)\n",
			single, singleT.Round(time.Millisecond), runtime.GOMAXPROCS(0))

		fmt.Println("  shards | partition (once) | sharded eval | speedup")
		for _, n := range []int{2, 4, 8, 16} {
			t1 := time.Now()
			pdb, err := hypertree.PartitionDatabase(db, n, hypertree.HashPartition)
			if err != nil {
				return err
			}
			partT := time.Since(t1)
			var sharded bool
			shardT, err := bestOf(2, func() (err error) {
				sharded, err = plan.ExecuteBooleanSharded(ctx, pdb)
				return
			})
			if err != nil {
				return err
			}
			if sharded != single {
				return fmt.Errorf("%d shards: sharded verdict %v != single %v", n, sharded, single)
			}
			fmt.Printf("  %6d | %16v | %12v | %.2fx\n",
				n, partT.Round(time.Millisecond), shardT.Round(time.Millisecond),
				float64(singleT)/float64(shardT))
		}
		fmt.Println("  expected shape: answers identical at every shard count. Each node's pivot")
		fmt.Println("  bind, encode and leapfrog run divide across shards (scatter scales with")
		fmt.Println("  cores) while the broadcast side comes from the encoding cache; the speedup")
		fmt.Println("  column is the evidence for keeping or replacing the sharded path")
		return nil
	}},
	{"E24", "fhw ≤ ghw — LP fractional covers vs greedy vs exact width", func() error {
		// The width-hierarchy experiment (Fischl–Gottlob–Pichler): on every
		// instance the fractional engine's achieved fhw must be ≤ the greedy
		// ghw bound, and on the clique/odd-cycle families the inequality is
		// strict (fhw(K_n) = n/2, fhw(C_3) = 3/2). The last column shows
		// which engine the WithAutoStrategy race resolves to. The exact
		// search runs under a step budget; "—" marks exhaustion.
		const budget = 200_000
		const eps = 1e-6
		separated := false
		fmt.Println("  instance        | atoms | exact hw | greedy ghw | fhd fhw (supp) | auto winner")
		for _, tc := range []struct {
			name string
			q    *hypertree.Query
		}{
			{"triangle", gen.Cycle(3)},
			{"cycle(9)", gen.Cycle(9)},
			{"grid(3,3)", gen.Grid(3, 3)},
			{"clique(4)", gen.CliqueBinary(4)},
			{"clique(5)", gen.CliqueBinary(5)},
			{"clique(6)", gen.CliqueBinary(6)},
			{"csp(12,20)", gen.RandomCSP(rand.New(rand.NewSource(24)), 12, 20, 3)},
			{"csp(20,35)", gen.RandomCSP(rand.New(rand.NewSource(24)), 20, 35, 3)},
		} {
			exactCol, hw := "  —  ", -1
			exact, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithStepBudget(budget))
			switch {
			case err == nil:
				hw = exact.Width()
				exactCol = fmt.Sprintf("%5d", hw)
			case errors.Is(err, hypertree.ErrStepBudget):
				// keep the dash
			default:
				return err
			}
			greedy, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithDecomposer(hypertree.GreedyDecomposer()))
			if err != nil {
				return fmt.Errorf("%s greedy: %w", tc.name, err)
			}
			frac, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithDecomposer(hypertree.FractionalDecomposer()))
			if err != nil {
				return fmt.Errorf("%s fhd: %w", tc.name, err)
			}
			auto, err := hypertree.Compile(tc.q,
				hypertree.WithStrategy(hypertree.StrategyHypertree),
				hypertree.WithAutoStrategy(),
				hypertree.WithStepBudget(budget))
			if err != nil {
				return fmt.Errorf("%s auto: %w", tc.name, err)
			}
			fhw := frac.FractionalWidth()
			fmt.Printf("  %-15s | %5d | %s | %10d | %8.4g (%2d) | %s\n",
				tc.name, len(tc.q.Atoms), exactCol, greedy.Width(), fhw, frac.Width(), auto.DecomposerName())
			// Both heuristics rank the same shape portfolio, fhd by
			// fractional width, so its achieved fhw can never exceed the
			// greedy integral width. Exceeding the *exact* hw is possible —
			// like ghd, fhd only upper-bounds its width measure when the
			// greedy shapes are suboptimal (csp(12,20) shows it).
			if fhw > float64(greedy.Width())+eps {
				return fmt.Errorf("%s: fhw %.4g exceeds greedy ghw %d", tc.name, fhw, greedy.Width())
			}
			if err := hypertree.ValidateFHD(frac.Decomposition()); err != nil {
				return fmt.Errorf("%s: %w", tc.name, err)
			}
			if fhw < float64(greedy.Width())-0.1 {
				separated = true
			}
		}
		if !separated {
			return fmt.Errorf("no instance separated fhw from ghw — the fractional engine buys nothing")
		}
		fmt.Println("  expected shape: fhw ≤ ghw everywhere and strictly below on the odd")
		fmt.Println("  cliques and cycles (fhw(K_n) = n/2, fhw(C_3) = 3/2); against the exact")
		fmt.Println("  hw both heuristics can lose when the greedy tree shapes are suboptimal.")
		fmt.Println("  The (supp) column — the integral size of the LP cover's support, which")
		fmt.Println("  is what evaluation joins — may exceed ghw: the race ranks plans by the")
		fmt.Println("  r^fhw output bound, not by support size. The auto winner is fhd exactly")
		fmt.Println("  where the gap is real and the exact engine where it ties")
		return nil
	}},
	{"E25", "Cost vs width — statistics pick the cheaper same-width plan", func() error {
		// The cost-based-planning experiment: a query whose every width
		// measure ties at 2 (gen.CostSeparationQuery — a 4-cycle plus a
		// parallel cheap edge) on a database with zipf-skewed relation
		// sizes, compiled twice through the same auto race: width-only and
		// with statistics. Width ranking cannot separate the candidate
		// decompositions, so it keeps the giant relation in its λ labels;
		// cost ranking must pick λ placements of provably lower estimated
		// cost, and the measured wall-clock should follow. Answers must be
		// identical — statistics choose among equivalent plans, never
		// change semantics.
		// Scale note: the width-only plan pairs the giant with a relation it
		// shares no variable with — a cross product — so its work grows with
		// |big|·|c3|. 8k rows keeps that painful (millions of intermediate
		// tuples) without making the experiment itself minutes-long.
		q := gen.CostSeparationQuery()
		maxRows, domain := 8_000, 500
		if smoke {
			maxRows, domain = 2_000, 250
		}
		db := gen.SkewedSizeDatabase(rand.New(rand.NewSource(25)), q, maxRows, domain, 3)
		// Plant a few complete cycles so both plans produce (and must agree
		// on) non-empty answers — random tuples alone almost never close C4.
		for i := 0; i < 3; i++ {
			w := func(j int) string { return fmt.Sprintf("w%d_%d", i, j) }
			db.AddFact("big", w(1), w(2))
			db.AddFact("small", w(1), w(2))
			db.AddFact("c2", w(2), w(3))
			db.AddFact("c3", w(3), w(4))
			db.AddFact("c4", w(4), w(1))
		}
		st := hypertree.CollectStats(db)
		var sizes []string
		for _, name := range db.RelationNames() {
			sizes = append(sizes, fmt.Sprintf("%s:%d", name, db.Relation(name).Rows()))
		}
		fmt.Printf("  database: %s (domain %d)\n", strings.Join(sizes, " "), domain)

		const budget = 200_000
		widthPlan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithAutoStrategy(),
			hypertree.WithStepBudget(budget))
		if err != nil {
			return err
		}
		costPlan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithAutoStrategy(),
			hypertree.WithStepBudget(budget),
			hypertree.WithCostModel(st))
		if err != nil {
			return err
		}
		if widthPlan.Width() != costPlan.Width() {
			return fmt.Errorf("widths diverged: width-only %d, cost-based %d — the experiment needs a pure cost separation",
				widthPlan.Width(), costPlan.Width())
		}
		wCost := hypertree.EstimateCost(q, widthPlan.Decomposition(), st)
		cCost := hypertree.EstimateCost(q, costPlan.Decomposition(), st)
		fmt.Printf("  width-only: %s, estimated cost %.4g\n", widthPlan, wCost)
		fmt.Printf("  cost-based: %s, estimated cost %.4g\n", costPlan, cCost)
		if cCost > wCost {
			return fmt.Errorf("cost-based plan estimated at %.4g, width-only at %.4g — ranking by cost must not lose by cost", cCost, wCost)
		}

		ctx := context.Background()
		bestOf := func(n int, p *hypertree.Plan) (*hypertree.Table, time.Duration, error) {
			var out *hypertree.Table
			best := time.Duration(1<<63 - 1)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				t, err := p.Execute(ctx, db)
				if err != nil {
					return nil, 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
				out = t
			}
			return out, best, nil
		}
		widthAns, widthT, err := bestOf(2, widthPlan)
		if err != nil {
			return err
		}
		costAns, costT, err := bestOf(2, costPlan)
		if err != nil {
			return err
		}
		if !widthAns.Equal(costAns) {
			return fmt.Errorf("answers diverged: width-only %d rows, cost-based %d rows", widthAns.Rows(), costAns.Rows())
		}
		fmt.Printf("  execution: width-only %v, cost-based %v, speedup %.2fx (%d answers, identical)\n",
			widthT.Round(time.Microsecond), costT.Round(time.Microsecond),
			float64(widthT)/float64(costT), costAns.Rows())
		if !smoke && cCost < wCost && costT >= widthT {
			return fmt.Errorf("cost-based plan (est %.4g < %.4g) did not beat width-only wall-clock (%v vs %v)",
				cCost, wCost, costT, widthT)
		}
		fmt.Println("  expected shape: equal widths, identical answers; the cost-based λ labels")
		fmt.Println("  avoid the giant relation, the estimated cost drops by orders of magnitude")
		fmt.Println("  and the measured wall-clock follows (the assertion is skipped at -smoke")
		fmt.Println("  scale, where both runs finish in microseconds)")
		return nil
	}},
	{"E26", "Tracing overhead — EXPLAIN ANALYZE spans cost ≤5% on the E23/E25 workloads", func() error {
		// The observability-cost experiment: the per-node tracer records
		// spans per decomposition node and pass, never per tuple, so a
		// traced execution must stay within 5% of the untraced wall-clock —
		// the budget that lets a serving daemon leave slow-query tracing
		// always on. Both reference workloads run twice, best-of-5 each way:
		// the E25 cost-separation enumeration (single-DB, per-node λ-join
		// spans) and the E23 sharded Boolean cycle (scatter-gather spans).
		// Answers must be bit-identical with tracing on, and the traces must
		// actually contain the spans the overhead is buying.
		const overheadBudget = 1.05
		q := gen.CostSeparationQuery()
		maxRows, domain := 8_000, 500
		if smoke {
			maxRows, domain = 2_000, 250
		}
		db := gen.SkewedSizeDatabase(rand.New(rand.NewSource(25)), q, maxRows, domain, 3)
		st := hypertree.CollectStats(db)
		plan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithAutoStrategy(),
			hypertree.WithStepBudget(200_000),
			hypertree.WithCostModel(st))
		if err != nil {
			return err
		}

		ctx := context.Background()
		bestOf := func(n int, f func(context.Context) error) (time.Duration, error) {
			best := time.Duration(1<<63 - 1)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := f(ctx); err != nil {
					return 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			return best, nil
		}
		var plainAns, tracedAns *hypertree.Table
		plainT, err := bestOf(5, func(ctx context.Context) (err error) {
			plainAns, err = plan.Execute(ctx, db)
			return
		})
		if err != nil {
			return err
		}
		var lastTrace *hypertree.Trace
		tracedT, err := bestOf(5, func(ctx context.Context) (err error) {
			lastTrace = hypertree.NewTrace()
			tracedAns, err = plan.Execute(hypertree.ContextWithTrace(ctx, lastTrace), db)
			return
		})
		if err != nil {
			return err
		}
		if !plainAns.Equal(tracedAns) {
			return fmt.Errorf("tracing changed the answer: %d vs %d rows", plainAns.Rows(), tracedAns.Rows())
		}
		nodeSpans := 0
		for _, sp := range lastTrace.Spans() {
			if sp.Name == "exec/node" {
				nodeSpans++
			}
		}
		if nodeSpans == 0 {
			return fmt.Errorf("traced E25 execution recorded no exec/node spans")
		}
		overhead := float64(tracedT) / float64(plainT)
		fmt.Printf("  E25 enumeration: untraced %v, traced %v (%.1f%% overhead, %d node spans)\n",
			plainT.Round(time.Microsecond), tracedT.Round(time.Microsecond), (overhead-1)*100, nodeSpans)
		if !smoke && overhead > overheadBudget {
			return fmt.Errorf("E25 tracing overhead %.1f%% exceeds the 5%% budget", (overhead-1)*100)
		}

		// E23 workload: the sharded Boolean cycle.
		cq := gen.Cycle(3)
		rows, cdom := 200_000, 100_000
		if smoke {
			rows, cdom = 20_000, 10_000
		}
		cdb := gen.LargeRandomDatabase(rand.New(rand.NewSource(23)), cq, rows, cdom)
		cplan, err := hypertree.Compile(cq,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithWorkers(runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		pdb, err := hypertree.PartitionDatabase(cdb, 4, hypertree.HashPartition)
		if err != nil {
			return err
		}
		var plainV, tracedV bool
		splainT, err := bestOf(5, func(ctx context.Context) (err error) {
			plainV, err = cplan.ExecuteBooleanSharded(ctx, pdb)
			return
		})
		if err != nil {
			return err
		}
		stracedT, err := bestOf(5, func(ctx context.Context) (err error) {
			lastTrace = hypertree.NewTrace()
			tracedV, err = cplan.ExecuteBooleanSharded(hypertree.ContextWithTrace(ctx, lastTrace), pdb)
			return
		})
		if err != nil {
			return err
		}
		if plainV != tracedV {
			return fmt.Errorf("tracing changed the sharded verdict: %v vs %v", plainV, tracedV)
		}
		shardSpans := 0
		for _, sp := range lastTrace.Spans() {
			if sp.Name == "exec/node/shard" {
				shardSpans++
			}
		}
		if shardSpans == 0 {
			return fmt.Errorf("traced E23 execution recorded no per-shard spans")
		}
		soverhead := float64(stracedT) / float64(splainT)
		fmt.Printf("  E23 sharded:     untraced %v, traced %v (%.1f%% overhead, %d shard spans)\n",
			splainT.Round(time.Microsecond), stracedT.Round(time.Microsecond), (soverhead-1)*100, shardSpans)
		if !smoke && soverhead > overheadBudget {
			return fmt.Errorf("E23 tracing overhead %.1f%% exceeds the 5%% budget", (soverhead-1)*100)
		}
		fmt.Println("  expected shape: identical answers both ways and overhead within the 5%")
		fmt.Println("  budget on both workloads — spans are per node, pass and shard, never per")
		fmt.Println("  tuple, so the cost stays a handful of clock reads per materialised table")
		fmt.Println("  (the wall-clock assertion is skipped at -smoke scale, where a microsecond")
		fmt.Println("  of jitter dwarfs the effect being measured)")
		return nil
	}},
	{"E27", "Plans ≡ naive join at benchmark scale on the E23/E25 workloads", func() error {
		// The differential suites (TestKernelEquivalence) prove plan ≡ naive
		// on randomized small queries; here the identity is re-asserted on
		// the two reference workloads of E23 and E25, where node tables hold
		// up to millions of rows, on the single-database, Boolean and
		// sharded paths, with the wall-clocks side by side.
		ctx := context.Background()
		timed := func(f func() error) (time.Duration, error) {
			t0 := time.Now()
			err := f()
			return time.Since(t0), err
		}

		// Workload 1: the E23 Boolean cycle — a width-2 plan whose root bag
		// joins two ~|db|-tuple relations, single-DB and 4-way sharded.
		q := gen.Cycle(3)
		rows, domain := 800_000, 400_000
		if smoke {
			rows, domain = 40_000, 20_000
		}
		db := gen.LargeRandomDatabase(rand.New(rand.NewSource(23)), q, rows, domain)
		pdb, err := hypertree.PartitionDatabase(db, 4, hypertree.HashPartition)
		if err != nil {
			return err
		}
		naive, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyNaive))
		if err != nil {
			return err
		}
		plan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithWorkers(runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		var want, got, gotSharded bool
		naiveT, err := timed(func() (err error) { want, err = naive.ExecuteBoolean(ctx, db); return })
		if err != nil {
			return err
		}
		planT, err := timed(func() (err error) { got, err = plan.ExecuteBoolean(ctx, db); return })
		if err != nil {
			return err
		}
		shardedT, err := timed(func() (err error) { gotSharded, err = plan.ExecuteBooleanSharded(ctx, pdb); return })
		if err != nil {
			return err
		}
		if got != want || gotSharded != want {
			return fmt.Errorf("E23 verdict: plan %v, sharded %v, naive %v", got, gotSharded, want)
		}
		fmt.Printf("  E23 Boolean cycle: naive %v, plan %v, 4-shard %v (verdict %v everywhere)\n",
			naiveT.Round(time.Millisecond), planT.Round(time.Millisecond), shardedT.Round(time.Millisecond), want)

		// Workload 2: the E25 cost-separation enumeration under the
		// fractional decomposer, whose LP cover weights put the leapfrog
		// planner on the AGM-bound r^fhw capacity path and weight-ordered
		// existential suffixes.
		q2 := gen.CostSeparationQuery()
		maxRows, dom2 := 8_000, 500
		if smoke {
			maxRows, dom2 = 2_000, 250
		}
		db2 := gen.SkewedSizeDatabase(rand.New(rand.NewSource(25)), q2, maxRows, dom2, 3)
		// plant complete cycles, as E25 does, so the enumeration is non-empty
		for i := 0; i < 3; i++ {
			w := func(j int) string { return fmt.Sprintf("w%d_%d", i, j) }
			db2.AddFact("big", w(1), w(2))
			db2.AddFact("small", w(1), w(2))
			db2.AddFact("c2", w(2), w(3))
			db2.AddFact("c3", w(3), w(4))
			db2.AddFact("c4", w(4), w(1))
		}
		naive2, err := hypertree.Compile(q2, hypertree.WithStrategy(hypertree.StrategyNaive))
		if err != nil {
			return err
		}
		plan2, err := hypertree.Compile(q2,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithDecomposer(hypertree.FractionalDecomposer()),
			hypertree.WithStats(db2))
		if err != nil {
			return err
		}
		var wantAns, ans *hypertree.Table
		naiveT, err = timed(func() (err error) { wantAns, err = naive2.Execute(ctx, db2); return })
		if err != nil {
			return err
		}
		planT, err = timed(func() (err error) { ans, err = plan2.Execute(ctx, db2); return })
		if err != nil {
			return err
		}
		if !ans.Equal(wantAns) || wantAns.Empty() {
			return fmt.Errorf("E25 answers: plan %d rows, naive %d", ans.Rows(), wantAns.Rows())
		}
		fmt.Printf("  E25 fhd enumeration: naive %v, plan %v (%d answers, identical)\n",
			naiveT.Round(time.Microsecond), planT.Round(time.Microsecond), wantAns.Rows())
		fmt.Println("  expected shape: identical verdicts and answer tables on every path")
		return nil
	}},
	{"E28", "Observability loop — 1-in-100 sampled tracing costs ≤1%, spans round-trip as OTLP/JSON", func() error {
		// The always-on-observability experiment. Part 1 prices the sampling
		// discipline hdserve runs in production: a 1-in-100 TraceSampler over
		// a burst of triangle executions against a plain untraced burst of
		// the same size. A nil *Trace costs nothing on the untraced 99, so
		// the aggregate overhead must sit within 1% — an order of magnitude
		// under the 5% per-execution budget E26 pins for a fully-traced run.
		const sampleEvery = 100
		const overheadBudget = 1.01 // sampled burst ≤ plain burst × this
		execs, rows, domain := 300, 3_000, 1_000
		if smoke {
			execs, rows, domain = 100, 500, 300
		}
		db := gen.ServingDatabase(rand.New(rand.NewSource(28)), rows, domain)
		q, err := hypertree.ParseQuery(`r1(X1, X2), r2(X2, X3), r3(X3, X1)`)
		if err != nil {
			return err
		}
		st := hypertree.CollectStatsSampled(db, 0)
		plan, err := hypertree.Compile(q,
			hypertree.WithAutoStrategy(),
			hypertree.WithCostModel(st))
		if err != nil {
			return err
		}
		ctx := context.Background()
		want, err := plan.Execute(ctx, db)
		if err != nil {
			return err
		}
		bestOf := func(n int, f func() error) (time.Duration, error) {
			best := time.Duration(1<<63 - 1)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := f(); err != nil {
					return 0, err
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			return best, nil
		}
		const rounds = 5
		plainT, err := bestOf(rounds, func() error {
			for i := 0; i < execs; i++ {
				ans, err := plan.Execute(ctx, db)
				if err != nil {
					return err
				}
				if !ans.Equal(want) {
					return fmt.Errorf("plain burst changed the answer: %d rows, want %d", ans.Rows(), want.Rows())
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		sampler := hypertree.NewTraceSampler(sampleEvery)
		sampledT, err := bestOf(rounds, func() error {
			for i := 0; i < execs; i++ {
				ectx := ctx
				if t := sampler.Sample(); t != nil {
					ectx = hypertree.ContextWithTrace(ctx, t)
				}
				ans, err := plan.Execute(ectx, db)
				if err != nil {
					return err
				}
				if !ans.Equal(want) {
					return fmt.Errorf("sampled burst changed the answer: %d rows, want %d", ans.Rows(), want.Rows())
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		wantSampled := uint64(rounds*execs) / sampleEvery
		if sampler.Seen() != uint64(rounds*execs) || sampler.Sampled() != wantSampled {
			return fmt.Errorf("sampler counted %d/%d seen/sampled, want %d/%d",
				sampler.Seen(), sampler.Sampled(), rounds*execs, wantSampled)
		}
		overhead := float64(sampledT) / float64(plainT)
		fmt.Printf("  %d-exec burst: plain %v, 1-in-%d sampled %v (%.2f%% overhead, %d traces taken)\n",
			execs, plainT.Round(time.Microsecond), sampleEvery, sampledT.Round(time.Microsecond),
			(overhead-1)*100, sampler.Sampled())
		if !smoke && overhead > overheadBudget {
			return fmt.Errorf("sampled-tracing overhead %.2f%% exceeds the 1%% budget", (overhead-1)*100)
		}

		// Part 2: the OTel seam. One fully-traced compile+execute must
		// round-trip through MarshalOTLP as valid OTLP/JSON — the payload an
		// hdserve -otel-file / -otel-endpoint exporter ships — with the span
		// taxonomy, the 32/16-hex trace and span IDs, nanosecond interval
		// times, and the q-error attribute the feedback loop keys on.
		tr := hypertree.NewTrace()
		tplan, err := hypertree.Compile(q,
			hypertree.WithAutoStrategy(),
			hypertree.WithCostModel(st),
			hypertree.WithTrace(tr))
		if err != nil {
			return err
		}
		if _, err := tplan.Execute(hypertree.ContextWithTrace(ctx, tr), db); err != nil {
			return err
		}
		payload, err := hypertree.MarshalOTLP("hdbench", tr)
		if err != nil {
			return err
		}
		var otlp struct {
			ResourceSpans []struct {
				Resource struct {
					Attributes []struct {
						Key   string `json:"key"`
						Value struct {
							StringValue string `json:"stringValue"`
						} `json:"value"`
					} `json:"attributes"`
				} `json:"resource"`
				ScopeSpans []struct {
					Spans []struct {
						TraceID   string `json:"traceId"`
						SpanID    string `json:"spanId"`
						Name      string `json:"name"`
						StartNano string `json:"startTimeUnixNano"`
						EndNano   string `json:"endTimeUnixNano"`
						Attrs     []struct {
							Key string `json:"key"`
						} `json:"attributes"`
					} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if err := json.Unmarshal(payload, &otlp); err != nil {
			return fmt.Errorf("OTLP payload does not parse back: %w", err)
		}
		if len(otlp.ResourceSpans) != 1 || len(otlp.ResourceSpans[0].ScopeSpans) != 1 {
			return fmt.Errorf("OTLP payload shape: %d resourceSpans", len(otlp.ResourceSpans))
		}
		spans := otlp.ResourceSpans[0].ScopeSpans[0].Spans
		if len(spans) != len(tr.Spans()) {
			return fmt.Errorf("OTLP payload has %d spans, trace has %d", len(spans), len(tr.Spans()))
		}
		names := map[string]bool{}
		ids := map[string]bool{}
		qerrs := 0
		for _, sp := range spans {
			if sp.TraceID != tr.TraceID() || len(sp.TraceID) != 32 {
				return fmt.Errorf("span %q carries trace ID %q, want %q", sp.Name, sp.TraceID, tr.TraceID())
			}
			if len(sp.SpanID) != 16 || ids[sp.SpanID] {
				return fmt.Errorf("span %q has bad or duplicate span ID %q", sp.Name, sp.SpanID)
			}
			ids[sp.SpanID] = true
			var start, end uint64
			if _, err := fmt.Sscanf(sp.StartNano+" "+sp.EndNano, "%d %d", &start, &end); err != nil || end < start {
				return fmt.Errorf("span %q has bad interval [%s, %s]", sp.Name, sp.StartNano, sp.EndNano)
			}
			names[sp.Name] = true
			for _, a := range sp.Attrs {
				if a.Key == "hypertree.q_error" {
					qerrs++
				}
			}
		}
		for _, need := range []string{"compile", "exec", "exec/node"} {
			if !names[need] {
				return fmt.Errorf("OTLP payload is missing a %q span", need)
			}
		}
		if qerrs == 0 {
			return fmt.Errorf("no span carries the hypertree.q_error attribute")
		}
		fmt.Printf("  OTLP round-trip: %d spans, %d distinct IDs, %d q-error attributes, service+taxonomy intact\n",
			len(spans), len(ids), qerrs)
		fmt.Println("  expected shape: the sampled burst answers match the plain burst with ≤1%")
		fmt.Println("  aggregate overhead (a nil trace costs nothing on the unsampled 99), the")
		fmt.Println("  sampler's counters are exact, and a traced execution exports as OTLP/JSON")
		fmt.Println("  that parses back with consistent IDs, intervals and q-error attributes")
		fmt.Println("  (the wall-clock assertion is skipped at -smoke scale)")
		return nil
	}},
	{"E29", "Warm Columnar encoding cache — a plan's repeat execution skips bind and encode", func() error {
		// The plan-level Columnar encoding cache makes a warm plan's repeat
		// execution cheaper than its cold one: the λ encodings are reused,
		// observably — misses stay flat while hits grow. The wall-clock
		// assertion runs only at full scale.
		ctx := context.Background()
		q := gen.Cycle(3)
		rows, domain := 800_000, 400_000
		if smoke {
			rows, domain = 40_000, 20_000
		}
		db := gen.LargeRandomDatabase(rand.New(rand.NewSource(29)), q, rows, domain)
		plan, err := hypertree.Compile(q,
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithCostModel(hypertree.CollectStatsSampled(db, 0)))
		if err != nil {
			return err
		}
		_, m0 := hypertree.ColumnarCacheMetrics()
		t0 := time.Now()
		coldV, err := plan.ExecuteBoolean(ctx, db)
		if err != nil {
			return err
		}
		coldT := time.Since(t0)
		h1, m1 := hypertree.ColumnarCacheMetrics()
		if m1 == m0 {
			return fmt.Errorf("cold execution encoded nothing (no columnar cache misses)")
		}
		warmT := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			v, err := plan.ExecuteBoolean(ctx, db)
			if err != nil {
				return err
			}
			if v != coldV {
				return fmt.Errorf("warm verdict %v != cold %v", v, coldV)
			}
			warmT = min(warmT, time.Since(t0))
		}
		h2, m2 := hypertree.ColumnarCacheMetrics()
		if m2 != m1 {
			return fmt.Errorf("warm executions re-encoded: %d fresh misses", m2-m1)
		}
		if h2 == h1 {
			return fmt.Errorf("warm executions never hit the columnar cache")
		}
		fmt.Printf("  E23 cycle: cold %v, warm %v (%.2fx; %d encodings cached, %d reuses)\n",
			coldT.Round(time.Millisecond), warmT.Round(time.Millisecond),
			float64(coldT)/float64(warmT), m1-m0, h2-h1)
		if !smoke && warmT >= coldT {
			return fmt.Errorf("warm execution %v is not faster than cold %v", warmT, coldT)
		}
		fmt.Println("  expected shape: warm executions reuse every cached λ encoding and beat the")
		fmt.Println("  cold run (the wall-clock assertion runs only outside -smoke)")
		return nil
	}},
	{"E30", "Join bags vs product bags — the estimator serves joins on cycles and prices what is left", func() error {
		// Among the width-2 covers of a cycle's bags some join two relations
		// over a shared variable (≈ rows²/domain tuples) and some multiply
		// two that share none (rows·domain after projection, rows² before);
		// the AGM product prices both at rows². Under statistics the auto
		// race must serve joins wherever the shape allows one, and estimate
		// every node — the unavoidable products of the longer cycles included
		// — close to what it materialises. Counts, not clocks: the same
		// assertions hold at every scale, so -smoke runs this one as it is.
		ctx := context.Background()
		const rows, domain = 500, 200
		for n := 4; n <= 8; n++ {
			q := gen.Cycle(n)
			db := gen.RegularDatabase(rand.New(rand.NewSource(int64(30+n))), q, rows, domain)
			plan, err := hypertree.Compile(q, hypertree.WithAutoStrategy(),
				hypertree.WithCostModel(hypertree.CollectStatsSampled(db, 0)))
			if err != nil {
				return err
			}
			tr := hypertree.NewTrace()
			got, err := plan.ExecuteBoolean(hypertree.ContextWithTrace(ctx, tr), db)
			if err != nil {
				return err
			}
			naive, err := hdeval.NaiveJoin(db, q)
			if err != nil {
				return err
			}
			if got != !naive.Empty() {
				return fmt.Errorf("cycle(%d): plan answers %v, naive join %v", n, got, !naive.Empty())
			}
			var actual int64
			est, worst := 0.0, 1.0
			for _, s := range tr.Spans() {
				if s.Name == "exec/node" {
					actual += s.Rows
					est += s.EstRows
					worst = max(worst, hypertree.QError(s.EstRows, s.Rows))
				}
			}
			fmt.Printf("  cycle(%d): Σ node rows %d against Σ estimates %.0f, worst node q-error %.2f (AGM product: %d per bag)\n",
				n, actual, est, worst, rows*rows)
			if n == 4 || n == 8 {
				fmt.Print(indent(plan.ExplainAnalyze()))
			}
			if float64(actual) > 4*est {
				return fmt.Errorf("cycle(%d): nodes materialise %d rows, over 4× the %.0f estimated", n, actual, est)
			}
			if worst > 4 {
				return fmt.Errorf("cycle(%d): worst node q-error %.2f > 4", n, worst)
			}
		}
		fmt.Println("  expected shape: cycle(4) is two join bags of ≈ rows²/domain; cycle(n) adds n−4")
		fmt.Println("  bags of rows·domain that no width-2 plan avoids, estimated at what they hold")
		return nil
	}},
}

func qwRow(q *hypertree.Query, name string, want int) error {
	w, d, err := hypertree.QueryWidth(q)
	if err != nil {
		return err
	}
	fmt.Printf("  %s: paper qw=%d, measured qw=%d (decomposition valid, %d nodes)\n", name, want, w, d.NumNodes())
	if w != want {
		return fmt.Errorf("%s: qw=%d, want %d", name, w, want)
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
