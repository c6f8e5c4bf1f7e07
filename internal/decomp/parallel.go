package decomp

import (
	"sync"
	"sync/atomic"

	"hypertree/internal/hypergraph"
)

// Parallel search. The alternating algorithm's existential branching at the
// root (the guess of λ(root)) is distributed over worker goroutines: each
// worker evaluates complete root candidates with its own private memo table
// and the first success halts the rest. This is the practical counterpart
// of the paper's LOGCFL parallelizability statement (Section 2.2, result 6);
// the speedup factor is hardware-dependent and not a number from the paper.

// parallelSearch is Search at k ≥ 1 on workers > 1 goroutines over a
// hypergraph with edges. The root generator charges b each root guess
// before handing it out, and every worker's Decider charges the same b.
func parallelSearch(b *Budget, h *hypergraph.Hypergraph, k, workers int) (*Decomposition, error) {
	tasks := make(chan []int)
	var winner atomic.Pointer[Decider]

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, _ := NewDecider(b, h, k)
			root := d.rootComponent()
			for lambda := range tasks {
				if b.Stopped() {
					continue // drain
				}
				if d.checkChildren(root, h.VarsOfList(lambda)) && !b.Stopped() {
					d.memo[memoKey(root, nil)] = &memoEntry{ok: true, lambda: lambda}
					if winner.CompareAndSwap(nil, d) {
						b.halt()
					}
				}
			}
		}()
	}

	// Generate root candidates: all non-empty subsets of edges of size ≤ k.
	// (At the root the frontier is empty and C = var(H), so the only Step-2
	// requirement is a non-empty S.)
	m := h.NumEdges()
	var gen func(from int, chosen []int) bool
	gen = func(from int, chosen []int) bool {
		if len(chosen) > 0 {
			if !b.Take() {
				return false
			}
			tasks <- append([]int(nil), chosen...)
		}
		if len(chosen) == k {
			return true
		}
		for e := from; e < m; e++ {
			if !gen(e+1, append(chosen, e)) {
				return false
			}
		}
		return true
	}
	gen(0, make([]int, 0, k))
	close(tasks)
	wg.Wait()

	// The winner ran to completion on its root guess, so its memo holds
	// every subproblem its tree needs.
	if d := winner.Load(); d != nil {
		return d.tree(), nil
	}
	if err := b.Err(); err != nil {
		return nil, err
	}
	return nil, ErrWidthExceeded
}
