package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/gen"
	"hypertree/internal/hdeval"
	"hypertree/internal/yannakakis"
)

// The differential proof obligation of the evaluator: on randomized acyclic
// and cyclic queries — half of them headed — a plan from every decomposer,
// with 1 and 4 workers, must return exactly the naive join's answers on the
// listing path and the Boolean path. Run under -race in CI; node encodings
// are shared across the worker goroutines.
func TestKernelEquivalence(t *testing.T) {
	ctx := context.Background()
	cases := gen.KernelCases(1999, 28)
	acyclic, cyclic := 0, 0
	for _, c := range cases {
		if c.Cyclic {
			cyclic++
		} else {
			acyclic++
		}
	}
	if acyclic == 0 || cyclic == 0 {
		t.Fatalf("degenerate case mix: %d acyclic, %d cyclic", acyclic, cyclic)
	}

	decomposers := map[string]CompileOption{
		"k-decomp": WithDecomposer(KDecomposer()),
		"ghd":      WithDecomposer(GreedyDecomposer()),
		"fhd":      WithDecomposer(FractionalDecomposer()),
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			naive, err := Compile(tc.Q, WithStrategy(StrategyNaive))
			if err != nil {
				t.Fatalf("naive compile: %v", err)
			}
			want, err := naive.Execute(ctx, tc.DB)
			if err != nil {
				t.Fatalf("naive execute: %v", err)
			}
			wantBool, err := naive.ExecuteBoolean(ctx, tc.DB)
			if err != nil {
				t.Fatalf("naive boolean: %v", err)
			}
			for dname, dopt := range decomposers {
				for _, workers := range []int{1, 4} {
					leg := fmt.Sprintf("%s/workers=%d", dname, workers)
					plan, err := Compile(tc.Q, WithStrategy(StrategyHypertree), dopt, WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s compile: %v", leg, err)
					}
					got, err := plan.Execute(ctx, tc.DB)
					if err != nil {
						t.Fatalf("%s execute: %v", leg, err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s disagrees with naive on %s:\n got %d rows, want %d",
							leg, tc.Q, got.Rows(), want.Rows())
					}
					if got.StringWith(tc.DB, tc.Q.VarName) != want.StringWith(tc.DB, tc.Q.VarName) {
						t.Fatalf("%s rendering disagrees with naive on %s", leg, tc.Q)
					}
					gotBool, err := plan.ExecuteBoolean(ctx, tc.DB)
					if err != nil {
						t.Fatalf("%s boolean: %v", leg, err)
					}
					if gotBool != wantBool {
						t.Fatalf("%s boolean verdict %v, want %v, on %s", leg, gotBool, wantBool, tc.Q)
					}
				}
			}
		})
	}
}

// Local consistency as an invariant: after the full reducer every node table
// — narrowed to the columns the rest of its tree reads — must equal the
// naive join of the whole body projected onto that table's own columns. On
// an acyclic instance pairwise consistency is global consistency, so this
// is what the reducer promises; it is stronger than answer equality, which
// a reducer bug the head projection happens to hide would pass. Every
// KernelCases body runs Boolean and under a random head, through every
// decomposer, with 1 and 4 workers. Run under -race in CI.
func TestReducedNodeTablesAreLocallyConsistent(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(27))
	decomposers := map[string]CompileOption{
		"k-decomp": WithDecomposer(KDecomposer()),
		"ghd":      WithDecomposer(GreedyDecomposer()),
		"fhd":      WithDecomposer(FractionalDecomposer()),
	}
	for _, tc := range gen.KernelCases(2718, 21) {
		body := cq.NewQuery(nil, tc.Q.Atoms)
		all := make([]cq.Term, body.NumVars())
		for v := range all {
			all[v] = cq.Var(body.VarName(v))
		}
		join, err := hdeval.NaiveJoin(tc.DB, cq.NewQuery(&cq.Atom{Pred: "ans", Args: all}, body.Atoms))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*Query{body, gen.WithRandomHead(rng, body)} {
			for dname, dopt := range decomposers {
				for _, workers := range []int{1, 4} {
					leg := fmt.Sprintf("%s %s workers=%d", q, dname, workers)
					plan, err := Compile(q, WithStrategy(StrategyHypertree), dopt, WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s: %v", leg, err)
					}
					root, err := plan.eval.Root(ctx, tc.DB, workers)
					if err != nil {
						t.Fatalf("%s: %v", leg, err)
					}
					reduceRef(root)
					var check func(n *yannakakis.Node)
					check = func(n *yannakakis.Node) {
						if want := join.Project(n.Vars()); !n.Enc.Table().Equal(want) {
							t.Fatalf("%s: reduced node table over %v holds %d rows, the naive join projected onto it %d",
								leg, n.Vars(), n.Rows(), want.Rows())
						}
						for _, c := range n.Children {
							check(c)
						}
					}
					check(root)
				}
			}
		}
	}
}

// Statistics-ordered plans: WithStats reorders every node's children by
// estimated cardinality and lets the cost model pick the decomposition, so
// the count pass and the walk meet their child lookups in a different order
// and against differently shaped neighbours than the statistics-free plans
// of TestKernelEquivalence; Plan.Execute's answers must not move from
// naive. Run under -race in CI.
func TestStatsOrderedPlansMatchNaive(t *testing.T) {
	ctx := context.Background()
	for _, tc := range gen.KernelCases(4217, 14) {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			naive, err := Compile(tc.Q, WithStrategy(StrategyNaive))
			if err != nil {
				t.Fatal(err)
			}
			want, err := naive.Execute(ctx, tc.DB)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(tc.Q, WithStrategy(StrategyHypertree), WithStats(tc.DB))
			if err != nil {
				t.Fatal(err)
			}
			got, err := plan.Execute(ctx, tc.DB)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("stats-ordered plan's answers disagree with naive on %s", tc.Q)
			}
		})
	}
}

// Plans whose statistics carry fractional cover weights — the configuration
// where the AGM capacity hint and the weight-ordered existential suffix of
// the leapfrog planner are actually exercised — must agree with naive too.
func TestKernelEquivalenceFractionalWeights(t *testing.T) {
	ctx := context.Background()
	for i, tc := range gen.KernelCases(733, 10) {
		if !tc.Cyclic {
			continue // fractional weights only arise on genuinely cyclic bags
		}
		naive, err := Compile(tc.Q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.Execute(ctx, tc.DB)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(tc.Q, WithStrategy(StrategyHypertree),
			WithDecomposer(FractionalDecomposer()), WithStats(tc.DB))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := plan.Execute(ctx, tc.DB)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("case %d: plan under fractional weights disagrees on %s", i, tc.Q)
		}
	}
}

// The deprecated shard names kept in kernel.go are the one evaluator under
// old spellings: ExecuteBooleanSharded over PartitionDatabase's result is
// ExecuteBoolean over the database itself, and PartitionDatabase still
// rejects fewer than one partition.
func TestDeprecatedShardShimIsExecuteBoolean(t *testing.T) {
	ctx := context.Background()
	for _, tc := range gen.KernelCases(3511, 12) {
		plan, err := Compile(tc.Q)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		want, err := plan.ExecuteBoolean(ctx, tc.DB)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		pdb, err := PartitionDatabase(tc.DB, 4, HashPartition)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if got, err := plan.ExecuteBooleanSharded(ctx, pdb); err != nil || got != want {
			t.Fatalf("%s: ExecuteBooleanSharded = %v, %v; ExecuteBoolean = %v", tc.Name, got, err, want)
		}
	}
	if _, err := PartitionDatabase(NewDatabase(), 0, HashPartition); err == nil {
		t.Fatal("PartitionDatabase accepted 0 partitions")
	}
}
