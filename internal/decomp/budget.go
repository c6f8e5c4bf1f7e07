package decomp

import (
	"context"
	"sync/atomic"
)

// Budget is the one step budget of every decomposition search: k-decomp
// charges each λ guess (the parallel search's root guesses included), the
// query-decomposition search each (S, deferral) trial, and the greedy and
// fractional walk each vertex elimination and simplex pivot. A step is
// charged and then compared with the limit, so a search under limit n
// runs n steps and stops at the (n+1)-th. The levels of MinWidth share
// one Budget, and so do the parallel search's workers, hence the atomics.
type Budget struct {
	limit  int64 // 0 = unlimited
	spent  atomic.Int64
	halted atomic.Bool // set by a parallel search's winner
	ctx    context.Context
	done   <-chan struct{} // ctx.Done(); nil when ctx can never be cancelled
}

// NewBudget returns a budget of limit steps (≤ 0 = unlimited) for a search
// that stops once ctx is cancelled.
func NewBudget(ctx context.Context, limit int) *Budget {
	return &Budget{limit: int64(max(limit, 0)), ctx: ctx, done: ctx.Done()}
}

// Take charges one step and reports whether the search may go on.
func (b *Budget) Take() bool {
	if n := b.spent.Add(1); b.limit > 0 && n > b.limit || b.halted.Load() {
		return false
	}
	return !b.cancelled()
}

// Stopped reports, without charging, whether the search must stop: the
// limit is overdrawn, the budget halted, or the context cancelled.
func (b *Budget) Stopped() bool {
	return b.limit > 0 && b.spent.Load() > b.limit || b.halted.Load() || b.cancelled()
}

// cancelled polls the context without blocking.
func (b *Budget) cancelled() bool {
	if b.done == nil {
		return false
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// halt stops every search charging b without an error: the first worker
// of a parallel search to succeed halts the others.
func (b *Budget) halt() { b.halted.Store(true) }

// Spent returns the steps charged so far, limited or not.
func (b *Budget) Spent() int { return int(b.spent.Load()) }

// Err says why a search under b stopped: the context's error, else
// ErrStepBudget if the limit is overdrawn, else nil.
func (b *Budget) Err() error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	if b.limit > 0 && b.spent.Load() > b.limit {
		return ErrStepBudget
	}
	return nil
}
