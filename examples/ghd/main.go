// Greedy GHD: compile a hypergraph far beyond the exact search's reach.
//
// The exact k-decomp search of Section 5 is exponential in the width bound,
// so a random CSP with 50 atoms is hopeless for it — under a step budget it
// gives up with ErrStepBudget. The greedy GHD engine (min-fill/min-degree/
// max-cardinality orderings + greedy edge cover, see GreedyDecomposer)
// finds a small-width generalized hypertree decomposition in milliseconds,
// and the resulting plan executes through the identical Lemma 4.6
// machinery.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	"hypertree"
	"hypertree/internal/gen"
)

func main() {
	// A random constraint network: 30 variables, 50 constraints, cyclic by
	// construction.
	q := gen.RandomCSP(rand.New(rand.NewSource(42)), 30, 50, 3)
	fmt.Printf("query: %d atoms over %d variables, acyclic: %v\n",
		len(q.Atoms), q.NumVars(), hypertree.IsAcyclic(q))

	// The exact search exhausts a generous step budget without an answer.
	const budget = 100000
	_, err := hypertree.Compile(q,
		hypertree.WithStrategy(hypertree.StrategyHypertree),
		hypertree.WithStepBudget(budget))
	fmt.Printf("exact k-decomp with a %d-step budget: gave up: %v\n",
		budget, errors.Is(err, hypertree.ErrStepBudget))

	// The greedy GHD engine compiles it immediately.
	start := time.Now()
	plan, err := hypertree.Compile(q,
		hypertree.WithStrategy(hypertree.StrategyHypertree),
		hypertree.WithDecomposer(hypertree.GreedyDecomposer()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy GHD compiled in %v: %s\n", time.Since(start).Round(time.Millisecond), plan)
	fmt.Printf("generalized: %v (validated against GHD conditions 1–3)\n", plan.Generalized())

	// The plan is a normal Plan: execute it against databases, reuse it,
	// run it with workers.
	db := gen.RandomDatabase(rand.New(rand.NewSource(7)), q, 40, 4)
	ok, err := plan.ExecuteBoolean(context.Background(), db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("satisfiable on a random database (40 rows/relation): %v\n", ok)
}
