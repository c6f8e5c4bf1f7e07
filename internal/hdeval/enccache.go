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
// (λ edge, column order), each entry pinned by the relation it was built
// from and its size. An /admin/ingest snapshot swap installs relations that
// share no pointer with their predecessors, and an entry keeps its own
// relation alive, so the pin alone rejects another database's encoding.

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
// the content — a relation of another database misses, and so does one
// grown in place between two executions, instead of serving the old tuples.
type encEntry struct {
	enc  *relation.Columnar
	rel  *relation.Relation
	rows int
}

// encCache is the encoding cache, one entry per key. Builds run outside the
// lock — two goroutines racing on one key both encode and the last to
// finish is kept (encodings are immutable, so either copy serves).
type encCache struct {
	mu      sync.Mutex
	entries map[encKey]encEntry
}

// get returns the cached encoding of rel (the executing database's relation
// behind key's edge, nil when absent) under key, and whether it was a hit;
// on a miss it builds and caches the encoding via build. A nil error from
// build is required for the entry to be stored.
func (c *encCache) get(rel *relation.Relation, key encKey, build func() (*relation.Columnar, error)) (*relation.Columnar, bool, error) {
	rows := 0
	if rel != nil {
		rows = rel.Rows()
	}
	c.mu.Lock()
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
	if c.entries == nil {
		c.entries = map[encKey]encEntry{}
	}
	c.entries[key] = encEntry{enc: enc, rel: rel, rows: rows}
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
