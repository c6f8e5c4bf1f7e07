// Command hdbench regenerates the E1–E20 experiments — the figures,
// lemmas and theorems of the paper (see docs/ARCHITECTURE.md) — and prints
// paper-claim versus measured rows. Every experiment asserts its claim and
// the command exits 1 if any fails. Run all experiments or a selection:
//
//	hdbench            # everything
//	hdbench E5 E14     # a selection
package main

import (
	"context"
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

func main() {
	flag.Parse()
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Printf("  FAILED: %v\n", err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
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
		s, _ := querydecomp.NewSearcher(context.Background(), h, 2)
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
		_, d := hypertree.HypergraphWidth(hypertree.QueryHypergraph(q))
		eval, err := hdeval.NewEvaluator(q, d, nil)
		if err != nil {
			return err
		}
		for _, r := range []int{50, 100, 200} {
			db := gen.RandomDatabase(rand.New(rand.NewSource(1)), q, r, 16)
			start := time.Now()
			root, err := eval.Root(context.Background(), db, 1)
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
		_, d := hypertree.HypergraphWidth(hypertree.QueryHypergraph(q))
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
			dec, err := decomp.NewDecider(context.Background(), h, tc.hw)
			if err != nil {
				return err
			}
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
		var took [2]time.Duration
		for i, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			start := time.Now()
			if _, _, err := decomp.Search(context.Background(), h, 3, workers, 0); err != nil {
				return fmt.Errorf("grid(3,4) has hw ≤ 3, but %d workers: %w", workers, err)
			}
			took[i] = time.Since(start)
		}
		fmt.Printf("  1 worker %v, %d workers %v\n", took[0].Round(time.Microsecond), runtime.GOMAXPROCS(0), took[1].Round(time.Microsecond))
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
