// Command qeval evaluates a conjunctive query against databases of facts.
//
// Usage:
//
//	qeval -query queryfile -db factsfile [-db2 factsfile ...]
//	      [-strategy auto|naive|acyclic|hd|ghd|fhd|qd] [-workers N]
//	      [-timeout D] [-widths] [-stats] [-explain] [-analyze]
//	      [-shards N] [-partition hash|rr]
//
// The query file holds one rule ("ans(X) :- r(X,Y), s(Y,Z)."); each facts
// file holds ground atoms, one or more per line ("r(a,b). s(b,c)."). For a
// Boolean query the verdict is printed; otherwise the answer relation. The
// query is compiled once and the plan is executed against every database —
// the amortisation of Theorem 4.7 (with -time, compile and per-database
// execution are reported separately).
//
// The default strategy, auto, runs Yannakakis on acyclic queries and on
// cyclic ones races the exact, fractional and greedy decomposition engines,
// keeping the lowest-width winner. -widths prints the width report of the
// compiled plan: integral width, achieved fractional width, and the
// decomposer that produced it.
//
// With -stats, sampled statistics are collected from the first database
// before compiling and planning becomes cost-based: the race ranks engines
// by estimated total evaluation cost, the heuristics break width ties
// toward cheaper λ placements, and every node tries its smallest estimated
// child table first.
// -explain prints the compiled plan's per-node cost/width report — which
// relations each λ label joins and what each node is estimated to
// materialise.
//
// -analyze traces compilation and every execution, then prints the EXPLAIN
// ANALYZE report after each database: per decomposition node the actual
// materialised cardinality next to the planner's estimate with their
// q-error, the semijoin/enumeration pass timings, and (under -strategy
// auto) every race entrant with its win/lose verdict.
//
// With -shards N > 0 each database is partitioned N ways (-partition picks
// hash or round-robin tuple placement) and the plan runs through
// ExecuteSharded: per-node λ-joins materialise shard-parallel and merge,
// answer-identically to the unsharded run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"hypertree"
	"hypertree/internal/strategyflag"
)

func main() {
	var (
		queryFile = flag.String("query", "", "file holding the conjunctive query")
		dbFile    = flag.String("db", "", "file holding the facts")
		dbFile2   = flag.String("db2", "", "optional second facts file (plan reuse)")
		strategy  = flag.String("strategy", "auto", strategyflag.Valid())
		workers   = flag.Int("workers", 0, "worker goroutines for the decomposition search and node-table materialisation")
		timeout   = flag.Duration("timeout", 0, "abort compilation/evaluation after this duration")
		timing    = flag.Bool("time", false, "print compile and evaluation wall time")
		widths    = flag.Bool("widths", false, "print the compiled plan's width report")
		useStats  = flag.Bool("stats", false, "collect statistics from the first database and plan cost-based")
		explain   = flag.Bool("explain", false, "print the nodes the compiled plan executes, with their estimates")
		analyze   = flag.Bool("analyze", false, "trace the execution and print per-node actual vs estimated rows")
		shards    = flag.Int("shards", 0, "partition each database N ways and execute sharded (0 = off)")
		partition = flag.String("partition", "hash", "tuple placement for -shards: hash | rr")
	)
	flag.Parse()
	if err := run(*queryFile, *dbFile, *dbFile2, *strategy, *workers, *timeout, *timing, *widths, *useStats, *explain, *analyze, *shards, *partition); err != nil {
		fmt.Fprintln(os.Stderr, "qeval:", err)
		os.Exit(1)
	}
}

func run(queryFile, dbFile, dbFile2, strategyName string, workers int, timeout time.Duration, timing, widths, useStats, explain, analyze bool, shards int, partition string) error {
	if queryFile == "" || dbFile == "" {
		return fmt.Errorf("both -query and -db are required")
	}
	var strategy hypertree.PartitionStrategy
	switch partition {
	case "hash":
		strategy = hypertree.HashPartition
	case "rr", "round-robin":
		strategy = hypertree.RoundRobinPartition
	default:
		return fmt.Errorf("unknown partition strategy %q (valid: hash | rr)", partition)
	}
	qsrc, err := os.ReadFile(queryFile)
	if err != nil {
		return err
	}
	q, err := hypertree.ParseQuery(string(qsrc))
	if err != nil {
		return err
	}

	files := []string{dbFile}
	if dbFile2 != "" {
		files = append(files, dbFile2)
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

	opts, err := strategyflag.Options(strategyName)
	if err != nil {
		return err
	}
	if workers > 0 {
		opts = append(opts, hypertree.WithWorkers(workers))
	}
	if useStats {
		opts = append(opts, hypertree.WithStats(dbs[0]))
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if analyze {
		// One trace for compile and every execution: the per-database
		// reports below each scope to their own execution's spans.
		ctx = hypertree.ContextWithTrace(ctx, hypertree.NewTrace())
	}

	start := time.Now()
	plan, err := hypertree.CompileContext(ctx, q, opts...)
	if err != nil {
		return err
	}
	compileTime := time.Since(start)
	if widths {
		printWidths(plan)
	}
	if explain {
		fmt.Print(plan.Explain())
	}

	for i, db := range dbs {
		if len(dbs) > 1 {
			fmt.Printf("-- %s --\n", files[i])
		}
		var table *hypertree.Table
		var elapsed time.Duration
		if shards > 0 {
			pdb, err := hypertree.PartitionDatabase(db, shards, strategy)
			if err != nil {
				return err
			}
			start = time.Now()
			table, err = plan.ExecuteSharded(ctx, pdb)
			elapsed = time.Since(start)
			if err != nil {
				return err
			}
		} else {
			start = time.Now()
			table, err = plan.Execute(ctx, db)
			elapsed = time.Since(start)
			if err != nil {
				return err
			}
		}
		if q.IsBoolean() {
			fmt.Println(!table.Empty())
		} else {
			fmt.Printf("%d answers\n", table.Rows())
			fmt.Println(table.StringWith(db, q.VarName))
		}
		if analyze {
			fmt.Print(plan.ExplainAnalyze())
		}
		if timing {
			fmt.Printf("compiled %s in %v, executed in %v\n", plan, compileTime, elapsed)
		}
	}
	return nil
}

// printWidths reports the compiled plan's width measures: the integral
// width (max |λ|), the achieved fractional width (max total λ weight — the
// tighter O(r^w) exponent for fractional plans), and the decomposer that
// won (for the auto race: the resolved engine).
func printWidths(plan *hypertree.Plan) {
	if plan.Decomposition() == nil {
		fmt.Printf("width report: no decomposition (strategy needs none)\n")
		return
	}
	fmt.Printf("width report: width=%d fhw=%.4g", plan.Width(), plan.FractionalWidth())
	if plan.DecomposerName() != "" {
		fmt.Printf(" decomposer=%s", plan.DecomposerName())
	}
	switch {
	case plan.Fractional():
		fmt.Printf(" (fractional: λ supports of optimal LP covers)")
	case plan.Generalized():
		fmt.Printf(" (generalized: width upper-bounds ghw)")
	}
	fmt.Println()
}
