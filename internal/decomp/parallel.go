package decomp

import (
	"context"
	"sync"
	"sync/atomic"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Parallel search. The alternating algorithm's existential branching at the
// root (the guess of λ(root)) is distributed over worker goroutines: each
// worker evaluates complete root candidates with its own private memo table
// and the first success cancels the rest. This is the practical counterpart
// of the paper's LOGCFL parallelizability statement (Section 2.2, result 6);
// the speedup factor is hardware-dependent and not a number from the paper.

// parallelSearch is Search at k ≥ 1 on workers > 1 goroutines over a
// hypergraph with edges. maxGuesses is a cross-worker total.
func parallelSearch(ctx context.Context, h *hypergraph.Hypergraph, k, workers, maxGuesses int) (*Decomposition, int, error) {
	all := h.AllVertices()
	rootComp := hypergraph.Component{Vertices: all, Edges: h.AllEdges().Elems()}

	tasks := make(chan []int)
	var stop atomic.Bool
	var counter atomic.Int64
	cancelled := CtxStop(ctx)
	overBudget := func() bool {
		return maxGuesses > 0 && counter.Load() > int64(maxGuesses)
	}
	halt := func() bool {
		return stop.Load() || overBudget() || (cancelled != nil && cancelled())
	}
	type result struct {
		dec    *Decider
		lambda []int
	}
	var winner atomic.Pointer[result]

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, _ := NewDecider(ctx, h, k)
			d.stop = halt
			d.MaxGuesses = maxGuesses
			d.sharedGuesses = &counter
			for lambda := range tasks {
				if halt() {
					continue // drain
				}
				varS := h.VarsOfList(lambda)
				if d.checkChildren(rootComp, varS) && !halt() {
					r := &result{dec: d, lambda: append([]int(nil), lambda...)}
					if winner.CompareAndSwap(nil, r) {
						stop.Store(true)
					}
				}
			}
		}()
	}

	// Generate root candidates: all non-empty subsets of edges of size ≤ k.
	// (At the root the frontier is empty and C = var(H), so the only Step-2
	// requirement is a non-empty S.)
	m := h.NumEdges()
	var gen func(from int, chosen []int)
	gen = func(from int, chosen []int) {
		if halt() {
			return
		}
		if len(chosen) > 0 {
			tasks <- append([]int(nil), chosen...)
		}
		if len(chosen) == k {
			return
		}
		for e := from; e < m; e++ {
			gen(e+1, append(chosen, e))
		}
	}
	gen(0, make([]int, 0, k))
	close(tasks)
	wg.Wait()

	spent := int(counter.Load())
	r := winner.Load()
	if r == nil {
		if err := ctx.Err(); err != nil {
			return nil, spent, err
		}
		if overBudget() {
			return nil, spent, ErrStepBudget
		}
		return nil, spent, ErrWidthExceeded
	}
	// Build the decomposition from the winning worker's memo. The winner ran
	// to completion on its candidate, so its memo is fully decided; clear the
	// stop hook so the rebuild cannot be interrupted.
	r.dec.stop = nil
	lambda := bitset.FromSlice(r.lambda)
	varS := h.Vars(lambda)
	root := &Node{Chi: varS.Intersect(all), Lambda: lambda}
	for _, child := range h.ComponentsWithin(varS, all) {
		if len(child.Edges) == 0 {
			continue
		}
		root.Children = append(root.Children, r.dec.build(child, h.Frontier(child, varS), nil, root.Chi))
	}
	return &Decomposition{H: h, Root: root}, spent, nil
}
