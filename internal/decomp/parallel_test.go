package decomp_test

import (
	"context"
	"errors"
	"testing"

	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
)

// The parallel search charges its budget for every guess, the root guesses
// its generator hands out included. Unbudgeted, it reports steps spent on
// every hypergraph with edges (at k = 1, and at k = 2 where the sequential
// search needs at most stepCeiling steps), and where it refutes the width
// bound — every root guess evaluated — at least the sequential search's
// count: the workers' private memos can only repeat subproblems, never
// skip one. On
// the triangle at k = 2 a budget of one step pays for the first root guess
// only, whose child component needs more, so it runs out at every worker
// count and under every interleaving.
func TestParallelSearchChargesEveryGuess(t *testing.T) {
	ctx := context.Background()
	names, hs := pinCorpus()
	for i, h := range hs {
		if h.NumEdges() == 0 {
			continue
		}
		for k := 1; k <= 2; k++ {
			seq := decomp.NewBudget(ctx, stepCeiling)
			_, seqErr := decomp.Search(seq, h, k, 1)
			if errors.Is(seqErr, decomp.ErrStepBudget) {
				continue
			}
			for _, workers := range []int{2, 4} {
				b := decomp.NewBudget(ctx, 0)
				_, err := decomp.Search(b, h, k, workers)
				switch {
				case (err == nil) != (seqErr == nil) || (err != nil && !errors.Is(err, decomp.ErrWidthExceeded)):
					t.Errorf("%s k=%d, %d workers: err %v, sequential %v", names[i], k, workers, err, seqErr)
				case b.Spent() == 0:
					t.Errorf("%s k=%d, %d workers: no step charged", names[i], k, workers)
				case err != nil && b.Spent() < seq.Spent():
					t.Errorf("%s k=%d, %d workers: refuted in %d steps, sequential %d", names[i], k, workers, b.Spent(), seq.Spent())
				}
			}
		}
	}

	triangle := hypergraph.New()
	triangle.AddEdge("r", "X", "Y")
	triangle.AddEdge("s", "Y", "Z")
	triangle.AddEdge("t", "Z", "X")
	for _, workers := range []int{1, 2, 4} {
		if _, err := decomp.Search(decomp.NewBudget(ctx, 1), triangle, 2, workers); !errors.Is(err, decomp.ErrStepBudget) {
			t.Errorf("triangle k=2, budget 1, %d workers: err %v, want ErrStepBudget", workers, err)
		}
	}
}
