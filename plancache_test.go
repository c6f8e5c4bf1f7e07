package hypertree

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"hypertree/internal/obs"
)

// LRU displacement counts as an eviction in Metrics.
func TestPlanCacheMetricsLRU(t *testing.T) {
	cache := NewPlanCache(2)
	ctx := context.Background()
	for _, src := range []string{`a(X,Y)`, `b(X,Y)`, `c(X,Y)`} {
		if _, err := cache.Compile(ctx, MustParseQuery(src)); err != nil {
			t.Fatal(err)
		}
	}
	m := cache.Metrics()
	if m.Misses != 3 || m.Evictions != 1 || m.Len != 2 {
		t.Fatalf("metrics = %+v, want misses=3 evictions=1 len=2", m)
	}
}

// The cache key incorporates the Decomposer name: a "ghd" plan and a
// "k-decomp" plan for the same query occupy distinct slots and neither
// shadows the other.
func TestPlanCacheDecomposerKeySeparation(t *testing.T) {
	cache := NewPlanCache(8)
	ctx := context.Background()
	q := MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X)`)
	opts := func(d Decomposer) []CompileOption {
		return []CompileOption{WithStrategy(StrategyHypertree), WithDecomposer(d)}
	}
	exact, err := cache.Compile(ctx, q, opts(KDecomposer())...)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := cache.Compile(ctx, q, opts(GreedyDecomposer())...)
	if err != nil {
		t.Fatal(err)
	}
	if exact == greedy {
		t.Fatal("ghd and k-decomp plans must not share a cache slot")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache len = %d, want 2 distinct entries", cache.Len())
	}
	if exact.DecomposerName() != "k-decomp" || greedy.DecomposerName() != "ghd" {
		t.Fatalf("decomposer names: %q / %q", exact.DecomposerName(), greedy.DecomposerName())
	}
	if exact.Generalized() || !greedy.Generalized() {
		t.Fatalf("generalized flags: exact=%v greedy=%v", exact.Generalized(), greedy.Generalized())
	}
	// both keys hit on re-compile
	if p, _ := cache.Compile(ctx, q, opts(KDecomposer())...); p != exact {
		t.Fatal("k-decomp plan missed the cache")
	}
	if p, _ := cache.Compile(ctx, q, opts(GreedyDecomposer())...); p != greedy {
		t.Fatal("ghd plan missed the cache")
	}
	if hits := cache.Metrics().Hits; hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// Regression: the full strategy-name surface — k-decomp, ghd, fhd and an
// auto race — keys four distinct cache slots for the same query, each of
// which hits on recompilation. Auto plans are keyed under "auto" (stable
// lookups) even though the plan itself records the resolved race winner,
// and the resolved winner never hijacks the explicit engines' slots.
func TestPlanCacheStrategyNamesNeverCollide(t *testing.T) {
	cache := NewPlanCache(16)
	ctx := context.Background()
	q := MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X)`)
	variants := map[string][]CompileOption{
		"k-decomp": {WithStrategy(StrategyHypertree), WithDecomposer(KDecomposer())},
		"ghd":      {WithStrategy(StrategyHypertree), WithDecomposer(GreedyDecomposer())},
		"fhd":      {WithStrategy(StrategyHypertree), WithDecomposer(FractionalDecomposer())},
		"auto":     {WithStrategy(StrategyHypertree), WithAutoStrategy()},
	}
	plans := map[string]*Plan{}
	for name, opts := range variants {
		p, err := cache.Compile(ctx, q, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plans[name] = p
	}
	if cache.Len() != len(variants) {
		t.Fatalf("cache len = %d, want %d distinct entries", cache.Len(), len(variants))
	}
	seen := map[*Plan]string{}
	for name, p := range plans {
		if prev, dup := seen[p]; dup {
			t.Fatalf("%s and %s share one cached plan", prev, name)
		}
		seen[p] = name
	}
	for name, opts := range variants {
		p, err := cache.Compile(ctx, q, opts...)
		if err != nil {
			t.Fatalf("%s recompile: %v", name, err)
		}
		if p != plans[name] {
			t.Fatalf("%s recompile missed its own slot", name)
		}
	}
	m := cache.Metrics()
	if m.Hits != uint64(len(variants)) || m.Misses != uint64(len(variants)) {
		t.Fatalf("metrics = %+v, want %d hits / %d misses", m, len(variants), len(variants))
	}
	// The resolved names tell the engines apart even though the auto slot
	// is keyed as "auto".
	if n := plans["fhd"].DecomposerName(); n != "fhd" {
		t.Fatalf("fhd plan name %q", n)
	}
	if n := plans["auto"].DecomposerName(); !strings.HasPrefix(n, "auto(") {
		t.Fatalf("auto plan name %q, want auto(<winner>)", n)
	}
}

// The Metrics/Len counters must hold up under concurrent Compile,
// Get-path hits, LRU evictions and Purge — run under -race in CI (make check).
func TestPlanCacheMetricsConcurrent(t *testing.T) {
	cache := NewPlanCache(4)
	ctx := context.Background()
	queries := []*Query{
		MustParseQuery(`ans(X) :- r(X,Y).`),
		MustParseQuery(`ans(X) :- r(X,Y), s(Y,Z).`),
		MustParseQuery(`ans(X) :- r(X,Y), s(Y,Z), t(Z,X).`),
		MustParseQuery(`ans(X) :- p(X,Y), p(Y,X).`),
		MustParseQuery(`ans(X) :- a(X), b(X).`),
		MustParseQuery(`ans(X) :- a(X, Y), b(Y, X), c(X, Y).`),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := cache.Compile(ctx, q); err != nil {
					t.Errorf("compile: %v", err)
					return
				}
				switch i % 3 {
				case 0:
					cache.Metrics()
				case 1:
					cache.Len()
				case 2:
					if i%25 == 0 {
						cache.Purge()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	m := cache.Metrics()
	if m.Hits+m.Misses != 8*50 {
		t.Fatalf("lost counter updates: hits %d + misses %d != %d", m.Hits, m.Misses, 8*50)
	}
	if m.Len != cache.Len() {
		t.Fatalf("Len snapshot inconsistent after quiescence")
	}
}

// Concurrent Compile calls on one shared *Query, hits and misses mixed,
// under statistics: the cache keys by the query's canonical form without
// writing to the query, so -race sees no conflict, and every caller gets the
// one cached plan of its options. CompileKeyed with the form computed once
// lands in the same slot.
func TestPlanCacheCompilesOneSharedQueryConcurrently(t *testing.T) {
	q := MustParseQuery(`ans(X, Z) :- r(X, Y), s(Y, Z), t(Z, X).`)
	db := NewDatabase()
	db.AddFact("r", "a", "b")
	db.AddFact("s", "b", "c")
	db.AddFact("t", "c", "a")
	opts := []CompileOption{WithAutoStrategy(), WithCostModel(CollectStatsSampled(db, 0))}
	cache := NewPlanCache(4)
	ctx := context.Background()
	plans := make([]*Plan, 16)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				p, err := cache.Compile(ctx, q, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				plans[g] = p
			}
		}()
	}
	wg.Wait()
	keyed, err := cache.CompileKeyed(ctx, q, CanonicalForm(q), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for g, p := range plans {
		if p != keyed {
			t.Fatalf("goroutine %d ended on another plan than the cached one", g)
		}
	}
	if m := cache.Metrics(); m.Len != 1 {
		t.Fatalf("%d cache entries for one query under one set of options", m.Len)
	}
}

// The cache-key invariant the serving layer leans on, pinned exactly:
// α-renaming a query's variables maps it to the SAME slot (the canonical
// form interns variables positionally), while permuting its body atoms maps
// it to a DIFFERENT slot even though the answers are set-equal — answer
// tables carry the compiled query's positional variable IDs, so a reordered
// query must not be served another ordering's plan. If this test starts
// failing because reordering suddenly hits, the renderers that line shared
// answer columns up by position (internal/serve) need auditing before the
// "fix" lands.
func TestPlanCacheKeyRenameInvariantNotReorderInvariant(t *testing.T) {
	cache := NewPlanCache(8)
	ctx := context.Background()

	base := MustParseQuery(`ans(X, Z) :- r(X, Y), s(Y, Z), t(Z, X).`)
	renamed := MustParseQuery(`ans(A, C) :- r(A, B), s(B, C), t(C, A).`)
	reordered := MustParseQuery(`ans(X, Z) :- t(Z, X), s(Y, Z), r(X, Y).`)

	if CanonicalForm(base) != CanonicalForm(renamed) {
		t.Fatalf("canonical form must be rename-invariant:\n  %s\n  %s",
			CanonicalForm(base), CanonicalForm(renamed))
	}
	if CanonicalForm(base) == CanonicalForm(reordered) {
		t.Fatalf("canonical form must distinguish atom orders, both gave %s", CanonicalForm(base))
	}

	p1, err := cache.Compile(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.Compile(ctx, renamed)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("α-renamed query compiled a distinct plan — rename invariance lost")
	}
	p3, err := cache.Compile(ctx, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("atom-reordered query was served the original's plan — reordering must miss")
	}
	m := cache.Metrics()
	if m.Hits != 1 || m.Misses != 2 || m.Len != 2 {
		t.Fatalf("metrics = %+v, want hits=1 misses=2 len=2", m)
	}
}

// WithJoinKernel is a no-op kept for old callers: it must not reach the
// cache key, so a compile with it and a compile without share one entry.
func TestPlanCacheIgnoresJoinKernelOption(t *testing.T) {
	cache := NewPlanCache(8)
	ctx := context.Background()
	q := MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X)`)
	plain, err := cache.Compile(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	withOpt, err := cache.Compile(ctx, q, WithJoinKernel(JoinKernelAuto))
	if err != nil {
		t.Fatal(err)
	}
	if m := cache.Metrics(); plain != withOpt || m.Len != 1 || m.Hits != 1 {
		t.Fatalf("WithJoinKernel split the cache: same plan %v, metrics %+v", plain == withOpt, m)
	}
	if plain.String() != "plan{hypertree, width=2, decomposer=k-decomp}" {
		t.Fatalf("plan renders as %s", plain)
	}
}

// Two queries whose constants spell the same characters once the quotes are
// gone are different queries: they must key different cache slots, and each
// must answer from its own plan.
func TestPlanCacheKeysQuotedConstantsApart(t *testing.T) {
	db := NewDatabase()
	if err := db.AddFact("r", "a,'b", "c", "x1"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddFact("r", "a", "b,'c", "x2"); err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache(4)
	ctx := context.Background()
	for _, tc := range []struct{ src, want string }{
		{`ans(X) :- r("a,'b", c, X).`, "x1"},
		{`ans(X) :- r(a, "b,'c", X).`, "x2"},
	} {
		plan, err := cache.Compile(ctx, MustParseQuery(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := plan.Execute(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Rows() != 1 || db.ValueName(ans.Row(0)[0]) != tc.want {
			t.Errorf("%s answered %d rows (%v), want %s", tc.src, ans.Rows(), ans, tc.want)
		}
	}
	if m := cache.Metrics(); m.Misses != 2 || m.Hits != 0 {
		t.Errorf("two different queries shared a slot: %+v", m)
	}
}

// A cached plan keeps no encoding, so it pins no snapshot: after a plan has
// run on db, and db has been cloned, grown and dropped (what an ingest
// does), the old relations are garbage although the plan is still cached.
func TestCachedPlanPinsNoDeadSnapshot(t *testing.T) {
	ctx := context.Background()
	cache := NewPlanCache(4)
	q := MustParseQuery(`r1(X, Y), r2(Y, Z), r3(Z, X)`)
	plan, err := cache.Compile(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	if err := db.ParseFacts(`r1(a, b). r2(b, c). r3(c, a). r1(b, c).`); err != nil {
		t.Fatal(err)
	}
	if ok, err := plan.ExecuteBoolean(ctx, db); err != nil || !ok {
		t.Fatalf("ExecuteBoolean = %v, %v", ok, err)
	}
	old := weak.Make(db.Relation("r1"))
	next := db.Clone()
	if err := next.AddFact("r1", "c", "d"); err != nil {
		t.Fatal(err)
	}
	db = nil
	runtime.GC()
	if again, err := cache.Compile(ctx, q); err != nil || again != plan {
		t.Fatalf("the plan left the cache (%v)", err)
	}
	if old.Value() != nil {
		t.Fatal("the cached plan keeps the dead snapshot's relation alive")
	}
	if ok, err := plan.ExecuteBoolean(ctx, next); err != nil || !ok {
		t.Fatalf("ExecuteBoolean on the successor = %v, %v", ok, err)
	}
}

// Encodings outlive the plans that built them: with room for one plan, A
// runs, B evicts it, and A compiled afresh takes every encoding of its
// first execution from the database.
func TestEvictedPlanRecompilesWarm(t *testing.T) {
	ctx := context.Background()
	cache := NewPlanCache(1)
	db := NewDatabase()
	if err := db.ParseFacts(`r1(a, b). r2(b, c). r3(c, a). r1(b, c). r2(c, a).`); err != nil {
		t.Fatal(err)
	}
	qa, qb := MustParseQuery(`r1(X, Y), r2(Y, Z), r3(Z, X)`), MustParseQuery(`ans(X) :- r1(X, Y), r2(Y, Z).`)
	a, err := cache.Compile(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(ctx, db); err != nil {
		t.Fatal(err)
	}
	b, err := cache.Compile(ctx, qb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(ctx, db); err != nil {
		t.Fatal(err)
	}
	again, err := cache.Compile(ctx, qa)
	if err != nil {
		t.Fatal(err)
	}
	if again == a || cache.Metrics().Evictions != 2 {
		t.Fatalf("A was not recompiled (metrics %+v)", cache.Metrics())
	}
	tr := NewTrace()
	if _, err := again.Execute(ContextWithTrace(ctx, tr), db); err != nil {
		t.Fatal(err)
	}
	binds := 0
	for _, s := range tr.Spans() {
		if s.Name == obs.SpanBind {
			binds++
			if !strings.HasSuffix(s.Label, " hit") {
				t.Fatalf("recompiled A's first execution: bind %q", s.Label)
			}
		}
	}
	if binds == 0 {
		t.Fatal("no bind spans")
	}
}
