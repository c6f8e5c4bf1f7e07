package hypertree

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

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
// decomposition instead of re-running the exponential-in-k search. An
// optional TTL (NewPlanCacheTTL) expires entries lazily on access. Safe for
// concurrent use.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	ttl       time.Duration // ≤ 0: entries never expire
	now       func() time.Time
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type planCacheEntry struct {
	key   string
	plan  *Plan
	added time.Time
}

// NewPlanCache returns an empty cache holding at most capacity plans
// (capacity < 1 is treated as 1); entries never expire.
func NewPlanCache(capacity int) *PlanCache {
	return NewPlanCacheTTL(capacity, 0)
}

// NewPlanCacheTTL is NewPlanCache with a time-to-live: an entry older than
// ttl is evicted (and recompiled) on its next access, and Len sweeps
// expired entries out. ttl ≤ 0 disables expiry. TTL eviction suits serving
// deployments where schemas drift: a plan compiled against yesterday's
// workload stops being served without a manual Purge.
func NewPlanCacheTTL(capacity int, ttl time.Duration) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		ttl:      ttl,
		now:      time.Now,
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
		entry := el.Value.(*planCacheEntry)
		if !c.expired(entry) {
			c.ll.MoveToFront(el)
			c.hits++
			p := entry.plan
			c.mu.Unlock()
			return p, nil
		}
		c.removeLocked(el)
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
		c.items[key] = c.ll.PushFront(&planCacheEntry{key: key, plan: p, added: c.now()})
		for c.ll.Len() > c.capacity {
			c.removeLocked(c.ll.Back())
		}
	}
	return p, nil
}

// expired reports whether the entry's TTL has lapsed.
func (c *PlanCache) expired(e *planCacheEntry) bool {
	return c.ttl > 0 && c.now().Sub(e.added) > c.ttl
}

// removeLocked evicts an element and counts it. Callers hold c.mu.
func (c *PlanCache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.items, el.Value.(*planCacheEntry).key)
	c.evictions++
}

// Len returns the number of live cached plans, sweeping out entries whose
// TTL has lapsed first.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	return c.ll.Len()
}

// sweepLocked evicts every expired entry. Callers hold c.mu.
func (c *PlanCache) sweepLocked() {
	if c.ttl <= 0 {
		return
	}
	var expired []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if c.expired(el.Value.(*planCacheEntry)) {
			expired = append(expired, el)
		}
	}
	for _, el := range expired {
		c.removeLocked(el)
	}
}

// CacheMetrics is a point-in-time snapshot of the cache counters: a TTL
// expiry and an LRU displacement both count as an eviction.
type CacheMetrics struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
}

// Metrics returns the cumulative counters plus the current size — the hook
// for exporting cache behaviour to monitoring. The snapshot is atomic:
// expired entries are swept and the counters read under one lock, so Len
// and Evictions are mutually consistent. Metrics is safe under any mix of
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
	c.sweepLocked()
	return CacheMetrics{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len()}
}

// Capacity returns the maximum number of plans the cache holds — the bound
// LRU eviction enforces, fixed at construction.
func (c *PlanCache) Capacity() int { return c.capacity }

// TTL returns the cache's time-to-live (0 when entries never expire).
func (c *PlanCache) TTL() time.Duration {
	if c.ttl < 0 {
		return 0
	}
	return c.ttl
}

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
