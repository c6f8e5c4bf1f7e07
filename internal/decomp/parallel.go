package decomp

import (
	"context"
	"fmt"
	"runtime"
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

// ParallelDecide reports whether hw(H) ≤ k using the given number of worker
// goroutines (≤ 0 selects GOMAXPROCS). An invalid width bound reports false.
func ParallelDecide(h *hypergraph.Hypergraph, k int, workers int) bool {
	_, err := ParallelDecomposeContext(context.Background(), h, k, workers, 0)
	return err == nil
}

// ParallelDecomposeContext returns a width-≤k NF hypertree decomposition
// computed by workers goroutines, with cancellation, a cross-worker step
// budget (maxGuesses candidate sets tested in total; 0 = unlimited) and
// typed errors: ErrInvalidWidth for k < 1,
// ErrWidthExceeded when hw(H) > k, ErrStepBudget when the budget ran out,
// or ctx.Err() on cancellation.
func ParallelDecomposeContext(ctx context.Context, h *hypergraph.Hypergraph, k, workers, maxGuesses int) (*Decomposition, error) {
	var counter atomic.Int64
	return parallelSearch(ctx, h, k, workers, maxGuesses, &counter)
}

// ParallelWidthContext minimises the width with the parallel search,
// sharing one cumulative step budget across the increasing-k iterations;
// maxK caps the levels searched as in WidthContext (0 = uncapped).
func ParallelWidthContext(ctx context.Context, h *hypergraph.Hypergraph, workers, maxGuesses, maxK int) (int, *Decomposition, error) {
	if h.NumEdges() == 0 {
		return 0, &Decomposition{H: h}, nil
	}
	var counter atomic.Int64
	for k := 1; ; k++ {
		d, err := parallelSearch(ctx, h, k, workers, maxGuesses, &counter)
		if err == nil {
			return k, d, nil
		}
		if err != ErrWidthExceeded || k == maxK {
			return 0, nil, err
		}
		if k > h.NumEdges() {
			return 0, nil, fmt.Errorf("decomp: width search exceeded edge count %d", h.NumEdges())
		}
	}
}

// parallelSearch distributes root candidates over workers. counter is the
// shared spent-guess count backing the maxGuesses budget; passing it in
// lets ParallelWidthContext keep one budget across width bounds.
func parallelSearch(ctx context.Context, h *hypergraph.Hypergraph, k, workers, maxGuesses int, counter *atomic.Int64) (*Decomposition, error) {
	if k < 1 {
		return nil, ErrInvalidWidth
	}
	if h.NumEdges() == 0 {
		return &Decomposition{H: h}, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	all := h.AllVertices()
	rootComp := hypergraph.Component{Vertices: all, Edges: h.AllEdges().Elems()}

	tasks := make(chan []int)
	var stop atomic.Bool
	cancelled := ctxStop(ctx)
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
			d := NewDecider(h, k)
			d.stop = halt
			d.MaxGuesses = maxGuesses
			d.sharedGuesses = counter
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

	r := winner.Load()
	if r == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if overBudget() {
			return nil, ErrStepBudget
		}
		return nil, ErrWidthExceeded
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
	return &Decomposition{H: h, Root: root}, nil
}
