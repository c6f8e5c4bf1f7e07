package hypertree

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"hypertree/internal/cq"
)

// PlanCache is an LRU cache of compiled Plans keyed by the canonical form
// of the query plus the compile options — including the Decomposer name, so
// e.g. a "ghd" plan and a "k-decomp" plan for the same query never collide.
//
// The canonical key is rename-invariant but NOT atom-reorder-invariant:
// α-renaming the variables of a query maps it to the same slot (the
// serving case — syntactically fresh requests reuse one plan), whereas
// permuting its body atoms compiles and caches separately, even though the
// answers are set-equal. Atom order is significant because answer tables
// carry the compiled query's positional variable IDs; making reordering
// hit would require remapping the cached plan's variable IDs onto the
// caller's query (see ROADMAP). The invariant is pinned by
// TestPlanCacheKeyRenameInvariantNotReorderInvariant. It
// makes the Theorem 4.7 amortisation automatic: recompiling a query that
// was already planned — under any variable naming — reuses the
// decomposition instead of re-running the exponential-in-k search. Safe
// for concurrent use.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type planCacheEntry struct {
	key  string
	plan *Plan
}

// NewPlanCache returns an empty cache holding at most capacity plans
// (capacity < 1 is treated as 1). Entries leave only by LRU displacement or
// Purge: a plan keyed under a statistics fingerprint stays right for as
// long as that fingerprint is live, and a snapshot that prices differently
// keys differently.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		capacity: max(capacity, 1),
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
}

// Compile returns the cached plan for (q, opts) or compiles and caches one.
// Two concurrent misses on the same key may both compile; the first to
// finish wins the cache slot (no lock is held across the search).
func (c *PlanCache) Compile(ctx context.Context, q *Query, opts ...CompileOption) (*Plan, error) {
	canon := ""
	if q != nil {
		canon = cq.CanonicalForm(q)
	}
	return c.CompileKeyed(ctx, q, canon, opts...)
}

// CompileKeyed is Compile for a caller that already holds canon =
// CanonicalForm(q) — a server that keys its own single-flight table by it —
// so one request renders the form once. canon is trusted: any other string
// files the plan under a key that is not q's.
func (c *PlanCache) CompileKeyed(ctx context.Context, q *Query, canon string, opts ...CompileOption) (*Plan, error) {
	cfg, err := newCompileConfig(opts)
	if err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("hypertree: Compile on a nil query")
	}
	key := planCacheKey(canon, cfg)

	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		p := el.Value.(*planCacheEntry).plan
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()

	p, err := compile(ctx, q, cfg)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; !ok {
		c.items[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: p})
		for c.ll.Len() > c.capacity {
			c.removeLocked(c.ll.Back())
		}
	}
	return p, nil
}

// removeLocked evicts an element and counts it. Callers hold c.mu.
func (c *PlanCache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*planCacheEntry).key)
	c.evictions++
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheMetrics is a point-in-time snapshot of the cache counters: every LRU
// displacement counts as an eviction.
type CacheMetrics struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
}

// Metrics returns the cumulative counters plus the current size — the hook
// for exporting cache behaviour to monitoring. The snapshot is atomic: the
// counters are read under one lock, so Len and Evictions are mutually
// consistent. Metrics is safe under any mix of
// concurrent Compile, Len, Purge and Metrics calls: every counter mutation
// happens under the same mutex the snapshot takes (audited with the race
// detector; see TestPlanCacheMetricsConcurrent).
//
// Counters are attributed per resolved strategy name: "k-decomp", "ghd",
// "fhd" and "auto" compiles of the same query occupy four distinct slots
// (see planCacheKey), so a hit under one name never masks a miss under
// another. An adaptive compile counts against "auto" regardless of which
// engine the race resolved to — the resolved winner lives on the cached
// Plan (DecomposerName reports "auto(<engine>)"), not in the key, which is
// what keeps repeated auto lookups hitting even when the race is
// nondeterministic about its winner.
func (c *PlanCache) Metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len()}
}

// Capacity returns the maximum number of plans the cache holds — the bound
// LRU eviction enforces, fixed at construction.
func (c *PlanCache) Capacity() int { return c.capacity }

// Purge empties the cache (counters are kept).
func (c *PlanCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
}

// planCacheKey fingerprints the query — by its canonical form, canon — and
// every option that shapes the plan. The strategy-name component is the
// decomposer name the caller asked for — "auto" for WithAutoStrategy
// compiles (newCompileConfig rejects auto + WithDecomposer, so the two can
// never be confused) — which keeps lookups stable even though an auto plan
// records the resolved race winner in Plan.DecomposerName. The statistics snapshot participates via
// its Fingerprint (newCompileConfig resolves WithStats collection before
// keying): cost-based planning picks among same-width plans by the
// snapshot, so plans compiled under different statistics — or none — must
// never serve each other's lookups.
func planCacheKey(canon string, cfg *compileConfig) string {
	name := ""
	if cfg.decomposer != nil {
		name = cfg.decomposer.Name()
	}
	if cfg.race {
		name = "auto"
	}
	return fmt.Sprintf("%s|s%d|k%d|b%d|w%d|%s|st%s",
		canon, cfg.strategy, cfg.maxWidth, cfg.stepBudget, cfg.workers, name,
		cfg.stats.Fingerprint())
}

// DefaultPlanCacheSize is the plan-cache capacity servers use when they are
// given none.
const DefaultPlanCacheSize = 256
