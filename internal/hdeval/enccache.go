package hdeval

import (
	"strconv"
	"sync"
	"sync/atomic"

	"hypertree/internal/relation"
)

// This file is the plan-level Columnar encoding cache. Scan nodes and the
// leapfrog kernel need every λ relation bound into sorted columns of
// interned Values — a counting-sort pass per column — and without caching
// that work reruns on every Execute and in every bag sharing the
// relation. The cache lives on the Evaluator (hence on the compiled Plan:
// hdserve's warm PlanCache keeps it hot across requests) and is keyed by
// (λ edge, column order) within a single database generation: entries are
// tied to the *relation.Database pointer they were built from, so an
// /admin/ingest snapshot swap — which installs a new Database — invalidates
// everything at the first touch, with no epoch bookkeeping.

// encCacheHits and encCacheMisses are process-wide encode-cache counters,
// exported on /admin/metrics as hdserve_columnar_cache_{hits,misses}_total.
var (
	encCacheHits   atomic.Uint64
	encCacheMisses atomic.Uint64
)

// ColumnarCacheCounters returns the process-wide Columnar encoding-cache
// hit/miss totals (monotonic since process start).
func ColumnarCacheCounters() (hits, misses uint64) {
	return encCacheHits.Load(), encCacheMisses.Load()
}

// encKey identifies one cached encoding: the λ edge whose bound atom table
// was encoded, the column order it was encoded under, and how many of those
// columns were kept (fewer than all of them for a scan node whose χ drops
// atom variables — the entry is then the distinct prefix projection).
type encKey struct {
	edge  int
	order string
	width int
}

// encEntry is one cached encoding together with what it was built from: the
// relation, and its size at the time. Relations only grow, so the pair pins
// the content — a database mutated in place between two executions misses
// instead of serving the old tuples.
type encEntry struct {
	enc  *relation.Columnar
	rel  *relation.Relation
	rows int
}

// encCache is the single-generation encoding cache. All entries belong to
// one database snapshot; a get against a different database resets the
// generation. Builds run outside the lock — two goroutines racing on one
// key both encode and the loser's work is discarded (encodings are
// immutable, so either copy serves).
type encCache struct {
	mu      sync.Mutex
	db      *relation.Database
	entries map[encKey]encEntry
}

// get returns the cached encoding of rel (db's relation behind key's edge,
// nil when absent) under key, and whether it was a hit; on a miss it builds
// and caches the encoding via build. A nil error from build is required for
// the entry to be stored.
func (c *encCache) get(db *relation.Database, rel *relation.Relation, key encKey, build func() (*relation.Columnar, error)) (*relation.Columnar, bool, error) {
	rows := 0
	if rel != nil {
		rows = rel.Rows()
	}
	c.mu.Lock()
	if c.db != db {
		c.db = db
		c.entries = map[encKey]encEntry{}
	}
	if e, ok := c.entries[key]; ok && e.rel == rel && e.rows == rows {
		c.mu.Unlock()
		encCacheHits.Add(1)
		return e.enc, true, nil
	}
	c.mu.Unlock()
	encCacheMisses.Add(1)
	enc, err := build()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	// Store only if the generation still matches; a concurrent execution
	// against a swapped database must not see this snapshot's encodings.
	if c.db == db {
		c.entries[key] = encEntry{enc: enc, rel: rel, rows: rows}
	}
	c.mu.Unlock()
	return enc, false, nil
}

// orderKey renders a column order as a cache-key string.
func orderKey(order []int) string {
	b := make([]byte, 0, 4*len(order))
	for _, v := range order {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}
