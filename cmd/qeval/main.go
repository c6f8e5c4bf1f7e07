// Command qeval compiles a conjunctive query and, given databases of facts,
// evaluates it.
//
// Usage:
//
//	qeval [-query queryfile] [-strategy auto|naive|acyclic|hd|ghd|fhd|qd]
//	      [-k N] [-budget N] [-workers N] [-timeout D] [-time]
//	      [-widths] [-explain] [-analyze] [-jointree]
//	      [-qw] [-dot]                                   (compile only)
//	      [-db factsfile [-db2 factsfile] [-stats]]      (evaluate)
//
// The query file holds one rule ("ans(X) :- r(X,Y), s(Y,Z)."); without
// -query the rule is read from stdin. Each facts file holds ground atoms,
// one or more per line ("r(a,b). s(b,c).").
//
// Without -db, qeval compiles the query and prints it, its acyclicity, the
// width of the compiled decomposition, the decomposer that found it, and the
// decomposition itself (atom representation and χ/λ labels, or Graphviz with
// -dot), after checking it against Definition 4.1 or its GHD/FHD relaxation.
// -qw adds the exact query width (an exponential search).
//
// With -db, the query is compiled once and the plan is executed against
// every database — the amortisation of Theorem 4.7 (with -time, compile
// and per-database execution are reported separately). For a Boolean query
// the verdict is printed; otherwise the answer relation.
//
// The default strategy, auto, runs Yannakakis on acyclic queries and on
// cyclic ones races the exact, fractional and greedy decomposition engines,
// keeping the lowest-width winner; hd is the exact k-decomp search, ghd the
// greedy heuristic, fhd the LP-priced fractional engine and qd the exact
// query-decomposition search (exponential, mind -budget). -workers N runs
// the node-table materialisation and k-decomp (alone or as the race's
// exact entrant) on N goroutines; the decomposer is still named k-decomp.
// -k N decides width ≤ N: when no decomposition that narrow exists, qeval
// prints "hw(Q) > N" (hd) or "qw(Q) > N" (qd) and exits 0; the heuristic
// engines prove no lower bound and say so.
//
// -widths prints the width report: integral width, achieved fractional
// width, the LP-optimal fractional re-cover of the tree's bags and the
// decomposer that won. -explain prints the nodes the compiled plan
// executes with their estimates. -analyze traces compilation (and every
// execution): compile-only it prints the span report — where the search
// time went and, under -strategy auto, every race entrant with its width
// and verdict; with -db the EXPLAIN ANALYZE report after each database,
// per node the actual rows next to the estimate with their q-error.
//
// With -stats, sampled statistics are collected from the first database
// before compiling and planning becomes cost-based: the race ranks engines
// by estimated total evaluation cost, the heuristics break width ties
// toward cheaper λ placements, and every node tries its smallest estimated
// child table first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hypertree"
)

// config holds qeval's flags.
type config struct {
	query, db, db2, strategy       string
	k, budget, workers             int
	timeout                        time.Duration
	timing, widths, stats, explain bool
	analyze, jointree, qw, dot     bool
}

func main() {
	var c config
	flag.StringVar(&c.query, "query", "", "file holding the conjunctive query (default: stdin)")
	flag.StringVar(&c.db, "db", "", "file holding the facts (omit to compile and print the decomposition)")
	flag.StringVar(&c.db2, "db2", "", "optional second facts file (plan reuse)")
	flag.StringVar(&c.strategy, "strategy", "auto", strings.Join(strategies, " | "))
	flag.IntVar(&c.k, "k", 0, "decide width ≤ k (0 = compute the width)")
	flag.IntVar(&c.budget, "budget", 0, "abort after this many search steps (0 = unlimited)")
	flag.IntVar(&c.workers, "workers", 0, "worker goroutines for the decomposition search and node-table materialisation")
	flag.DurationVar(&c.timeout, "timeout", 0, "abort compilation/evaluation after this duration")
	flag.BoolVar(&c.timing, "time", false, "print compile and evaluation wall time")
	flag.BoolVar(&c.widths, "widths", false, "print integral, fractional and LP-optimal widths")
	flag.BoolVar(&c.stats, "stats", false, "collect statistics from the first database and plan cost-based")
	flag.BoolVar(&c.explain, "explain", false, "print the nodes the compiled plan executes, with their estimates")
	flag.BoolVar(&c.analyze, "analyze", false, "trace and print the span report (with -db: per-node actual vs estimated rows)")
	flag.BoolVar(&c.jointree, "jointree", false, "print a join tree if the query is acyclic")
	flag.BoolVar(&c.qw, "qw", false, "also compute the query width (exponential; compile only)")
	flag.BoolVar(&c.dot, "dot", false, "print the decomposition as Graphviz (compile only)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "qeval: unexpected arguments (the query file goes in -query)")
		os.Exit(2)
	}
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "qeval:", err)
		os.Exit(1)
	}
}

// strategies lists every -strategy value, in display order.
var strategies = []string{"auto", "naive", "acyclic", "hd", "ghd", "fhd", "qd"}

// strategyOptions resolves a -strategy name to its compile options; an
// unknown name yields an error carrying the full valid list.
func strategyOptions(name string) ([]hypertree.CompileOption, error) {
	hd := hypertree.WithStrategy(hypertree.StrategyHypertree)
	switch name {
	case "auto":
		return []hypertree.CompileOption{hypertree.WithStrategy(hypertree.StrategyAuto), hypertree.WithAutoStrategy()}, nil
	case "naive":
		return []hypertree.CompileOption{hypertree.WithStrategy(hypertree.StrategyNaive)}, nil
	case "acyclic":
		return []hypertree.CompileOption{hypertree.WithStrategy(hypertree.StrategyAcyclic)}, nil
	case "hd":
		return []hypertree.CompileOption{hd}, nil
	case "ghd":
		return []hypertree.CompileOption{hd, hypertree.WithDecomposer(hypertree.GreedyDecomposer())}, nil
	case "fhd":
		return []hypertree.CompileOption{hd, hypertree.WithDecomposer(hypertree.FractionalDecomposer())}, nil
	case "qd":
		return []hypertree.CompileOption{hd, hypertree.WithDecomposer(hypertree.QueryDecomposer())}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (valid: %s)", name, strings.Join(strategies, " | "))
}

func run(w io.Writer, c config) error {
	if c.db == "" && (c.db2 != "" || c.stats) {
		return errors.New("-db2 and -stats need -db")
	}
	if c.db != "" && (c.qw || c.dot) {
		return errors.New("-qw and -dot print the compile-only report; drop -db")
	}
	opts, err := strategyOptions(c.strategy)
	if err != nil {
		return err
	}
	q, err := readQuery(c.query)
	if err != nil {
		return err
	}

	var files []string
	for _, f := range []string{c.db, c.db2} {
		if f != "" {
			files = append(files, f)
		}
	}
	dbs := make([]*hypertree.Database, len(files))
	for i, f := range files {
		facts, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		dbs[i] = hypertree.NewDatabase()
		if err := dbs[i].ParseFacts(string(facts)); err != nil {
			return err
		}
	}

	if c.k > 0 {
		opts = append(opts, hypertree.WithMaxWidth(c.k))
	}
	if c.budget > 0 {
		opts = append(opts, hypertree.WithStepBudget(c.budget))
	}
	if c.workers > 0 {
		opts = append(opts, hypertree.WithWorkers(c.workers))
	}
	if c.stats {
		opts = append(opts, hypertree.WithStats(dbs[0]))
	}

	if len(dbs) == 0 {
		fmt.Fprintf(w, "query: %s\n", q)
		fmt.Fprintf(w, "atoms: %d, variables: %d\n", len(q.Atoms), q.NumVars())
		fmt.Fprintf(w, "acyclic: %v\n", hypertree.IsAcyclic(q))
	}
	if c.jointree {
		if tree, ok := hypertree.QueryJoinTree(q); ok && tree != nil {
			fmt.Fprintln(w, "join tree (atom indices):")
			fmt.Fprint(w, tree.String())
		} else {
			fmt.Fprintln(w, "no join tree: query is cyclic")
		}
	}

	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var trace *hypertree.Trace
	if c.analyze {
		// One trace for compile and every execution: the per-database
		// reports below each scope to their own execution's spans.
		trace = hypertree.NewTrace()
		ctx = hypertree.ContextWithTrace(ctx, trace)
	}

	start := time.Now()
	plan, err := hypertree.CompileContext(ctx, q, opts...)
	switch {
	case errors.Is(err, hypertree.ErrWidthExceeded):
		// hd and qd are exhaustive searches, so their failure is a proven
		// lower bound; the heuristic engines prove nothing on failure.
		switch c.strategy {
		case "hd":
			fmt.Fprintf(w, "hw(Q) > %d\n", c.k)
		case "qd":
			fmt.Fprintf(w, "qw(Q) > %d\n", c.k)
		default:
			fmt.Fprintf(w, "strategy %s found no decomposition of width ≤ %d (heuristics prove no lower bound)\n", c.strategy, c.k)
		}
		return nil
	case errors.Is(err, hypertree.ErrStepBudget):
		return fmt.Errorf("search exceeded the %d-step budget", c.budget)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("search exceeded the %v timeout", c.timeout)
	case err != nil:
		return err
	}
	compileTime := time.Since(start)
	if len(dbs) == 0 {
		if err := printDecomposition(w, c, q, plan); err != nil {
			return err
		}
	}
	if c.widths {
		if err := printWidths(ctx, w, plan); err != nil {
			return err
		}
	}
	if c.explain {
		fmt.Fprint(w, plan.Explain())
	}
	if len(dbs) == 0 {
		if c.analyze {
			fmt.Fprint(w, trace.Render())
		}
		if c.timing {
			fmt.Fprintf(w, "compiled %s in %v\n", plan, compileTime)
		}
		if c.qw {
			qw, qd, err := hypertree.QueryWidth(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "query width: %d\n", qw)
			fmt.Fprint(w, hypertree.AtomRepresentation(q, qd))
		}
		return nil
	}

	for i, db := range dbs {
		if len(dbs) > 1 {
			fmt.Fprintf(w, "-- %s --\n", files[i])
		}
		start = time.Now()
		table, err := plan.Execute(ctx, db)
		elapsed := time.Since(start)
		if err != nil {
			return err
		}
		if q.IsBoolean() {
			fmt.Fprintln(w, !table.Empty())
		} else {
			fmt.Fprintf(w, "%d answers\n", table.Rows())
			fmt.Fprintln(w, table.StringWith(db, q.VarName))
		}
		if c.analyze {
			fmt.Fprint(w, plan.ExplainAnalyze(trace))
		}
		if c.timing {
			fmt.Fprintf(w, "compiled %s in %v, executed in %v\n", plan, compileTime, elapsed)
		}
	}
	return nil
}

// readQuery parses the query in file, or on stdin when file is "".
func readQuery(file string) (*hypertree.Query, error) {
	var src []byte
	var err error
	if file == "" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(file)
	}
	if err != nil {
		return nil, err
	}
	return hypertree.ParseQuery(string(src))
}

// printDecomposition prints the compiled plan's width line, its decomposer
// and its decomposition, after validating the decomposition against the
// definition it claims: Definition 4.1, or its GHD or FHD relaxation.
func printDecomposition(w io.Writer, c config, q *hypertree.Query, plan *hypertree.Plan) error {
	d := plan.Decomposition()
	if d == nil {
		fmt.Fprintf(w, "no decomposition: %s evaluates without one\n", plan)
		return nil
	}
	validate := hypertree.ValidateHD
	switch {
	case plan.Fractional():
		validate = hypertree.ValidateFHD
		fmt.Fprintf(w, "fractional hypertree width (achieved): %.4g (integral support width %d)\n",
			plan.FractionalWidth(), plan.Width())
	case plan.Generalized():
		validate = hypertree.ValidateGHD
		fmt.Fprintf(w, "generalized hypertree width (greedy upper bound): %d\n", plan.Width())
	case c.k > 0:
		fmt.Fprintf(w, "hw(Q) ≤ %d, found width %d\n", c.k, plan.Width())
	default:
		fmt.Fprintf(w, "hypertree width: %d\n", plan.Width())
	}
	fmt.Fprintf(w, "decomposer: %s\n", plan.DecomposerName())
	if err := validate(d); err != nil {
		return fmt.Errorf("internal error: produced decomposition invalid: %v", err)
	}
	if c.dot {
		fmt.Fprint(w, hypertree.DOT(d))
		return nil
	}
	fmt.Fprintln(w, "decomposition (atom representation, '_' = projected out):")
	fmt.Fprint(w, hypertree.AtomRepresentation(q, d))
	fmt.Fprintln(w, "decomposition (χ / λ):")
	fmt.Fprint(w, hypertree.ChiLambdaRepresentation(d))
	return nil
}

// printWidths reports the compiled plan's width measures: the integral
// width (max |λ|), the achieved fractional width (max total λ weight — the
// tighter O(r^w) exponent for fractional plans), the fractional width of
// an LP-optimal re-cover of the same bags, and the decomposer that won
// (for the auto race: the resolved engine).
func printWidths(ctx context.Context, w io.Writer, plan *hypertree.Plan) error {
	d := plan.Decomposition()
	if d == nil {
		fmt.Fprintln(w, "width report: no decomposition (strategy needs none)")
		return nil
	}
	opt, err := hypertree.FractionalWidthOf(ctx, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "width report: width=%d fhw=%.4g optimal-bag-fhw=%.4g decomposer=%s",
		plan.Width(), plan.FractionalWidth(), opt, plan.DecomposerName())
	switch {
	case plan.Fractional():
		fmt.Fprint(w, " (fractional: λ supports of optimal LP covers)")
	case plan.Generalized():
		fmt.Fprint(w, " (generalized: width upper-bounds ghw)")
	}
	fmt.Fprintln(w)
	return nil
}
