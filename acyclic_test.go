package hypertree

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"hypertree/internal/gen"
	"hypertree/internal/obs"
)

// Acyclic plans run their join tree as a width-1 decomposition of the one
// evaluator. On the acyclic half of gen.KernelCases, for 1 and 4 workers,
// every execution form must return exactly the naive join's answers, and a
// traced execution must show the path taken: one scan per atom, each fed by
// one encoding-cache fetch, hits once the database has bound the atom.
// Each plan runs on its own Clone of the case's database, which starts with
// no encodings, so its first pass misses and its second hits. (The row-major
// Yannakakis oracle and the adversarial shapes are checked where the
// evaluator lives, in internal/hdeval.) Run under -race in CI.
func TestAcyclicPlansRunWidth1(t *testing.T) {
	ctx := context.Background()
	seen := 0
	for _, tc := range gen.KernelCases(6021, 35) {
		if tc.Cyclic {
			continue
		}
		seen++
		naive, err := Compile(tc.Q, WithStrategy(StrategyNaive))
		if err != nil {
			t.Fatal(err)
		}
		want, err := naive.Execute(ctx, tc.DB)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			plan, err := Compile(tc.Q, WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s: %v", tc.Name, err)
			}
			if plan.Strategy() != StrategyAcyclic || plan.Width() != 1 || plan.Decomposition() != nil {
				t.Fatalf("%s: %s, width %d: want the acyclic strategy at width 1", tc.Name, plan, plan.Width())
			}
			db := tc.DB.Clone()
			for pass := 0; pass < 2; pass++ {
				tr := NewTrace()
				got, err := plan.Execute(ContextWithTrace(ctx, tr), db)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", tc.Name, workers, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s workers=%d pass %d: %d answers, naive has %d", tc.Name, workers, pass, got.Rows(), want.Rows())
				}
				atoms := len(tc.Q.Atoms)
				nodes, binds := 0, 0
				for _, s := range tr.Spans() {
					switch s.Name {
					case obs.SpanNode:
						nodes++
						if s.Kernel != "scan" {
							t.Fatalf("%s: node runs %q, want a scan", tc.Name, s.Kernel)
						}
					case obs.SpanBind:
						binds++
						if wantHit := pass == 1; strings.HasSuffix(s.Label, " hit") != wantHit {
							t.Fatalf("%s pass %d: bind labelled %q", tc.Name, pass, s.Label)
						}
					}
				}
				if nodes != atoms || binds != atoms {
					t.Fatalf("%s: %d node and %d bind spans for %d atoms", tc.Name, nodes, binds, atoms)
				}
			}
			ok, err := plan.ExecuteBoolean(ctx, db)
			if err != nil || ok != !want.Empty() {
				t.Fatalf("%s workers=%d: ExecuteBoolean = %v, %v; naive has %d answers", tc.Name, workers, ok, err, want.Rows())
			}
		}
	}
	if seen < 8 {
		t.Fatalf("only %d acyclic cases", seen)
	}
}

// regularDB builds the exec_enum / exec_cyclic benchmark shape at a chosen
// size: the named binary relations of 2·domain tuples each, degree-regular
// (every constant twice per column).
func regularDB(domain int, rels ...string) *Database {
	rng := rand.New(rand.NewSource(1))
	db := NewDatabase()
	name := func(i int) string { return fmt.Sprintf("d%d", i) }
	for _, rel := range rels {
		for round := 0; round < 2; round++ {
			src, dst := rng.Perm(domain), rng.Perm(domain)
			for i := range src {
				db.AddFact(rel, name(src[i]), name(dst[i]))
			}
		}
	}
	return db
}

// enumShapeDB is the exec_enum shape: over it the 3-path has 8·domain
// answers.
func enumShapeDB(domain int) *Database { return regularDB(domain, "r1", "r2", "r3") }

const enumShapeQuery = `ans(X1, X2, X3, X4) :- r1(X1, X2), r2(X2, X3), r3(X3, X4).`

// The allocation guard of the columnar acyclic path: a warm Execute works on
// cached encodings, the descent's liveness flags and run memos and one
// answer buffer, so its allocation count must not grow with the relations
// — under 1 000 at
// the exec_enum scale (3 × 15 000 rows; the row-major path made ≈ 500 000,
// one string key per row and operator), and no more at that scale than at a
// tenth of it beyond a few doublings of a growing buffer.
func TestAcyclicWarmExecuteAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := func(domain int) float64 {
		db := enumShapeDB(domain)
		plan, err := Compile(MustParseQuery(enumShapeQuery))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Strategy() != StrategyAcyclic {
			t.Fatalf("%s: want the acyclic strategy", plan)
		}
		out, err := plan.Execute(ctx, db) // warm the encoding cache
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() < 7*domain || out.Rows() > 8*domain {
			t.Fatalf("domain %d: %d answers, want about %d", domain, out.Rows(), 8*domain)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := plan.Execute(ctx, db); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(750), allocs(7500)
	t.Logf("allocations per warm Execute: %.0f at 3 × 1 500 rows, %.0f at 3 × 15 000 rows", small, large)
	if large >= 1000 {
		t.Fatalf("%.0f allocations per warm Execute at 3 × 15 000 rows, want < 1000", large)
	}
	if large > small+16 {
		t.Fatalf("allocations grow with the input: %.0f at 3 × 1 500 rows, %.0f at 3 × 15 000 rows", small, large)
	}
}

// The allocation pin of the answer cursor, which is what hdserve runs: a
// warm Count plus the 10 rows a reply renders allocates the same number of
// objects at 3 × 1 500 rows as at 3 × 15 000 — the descent keeps a
// liveness array per interior node and a run memo only where a run can be
// reached twice (none on this path, whose keys lead each parent's order),
// the walk nothing per row — and under 64 KiB at 3 × 15 000, far fewer
// bytes than the answer table Execute would build (a memo per interior
// node below the root made it ≈ 158 KB).
func TestAcyclicWarmCountAllocs(t *testing.T) {
	ctx := context.Background()
	measure := func(domain int) (allocs, bytes float64, tableBytes int) {
		db := enumShapeDB(domain)
		plan, err := Compile(MustParseQuery(enumShapeQuery))
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Execute(ctx, db) // warm the encoding cache
		if err != nil {
			t.Fatal(err)
		}
		firstRows := func() {
			a, err := plan.Answers(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			if a.Count() != out.Rows() {
				t.Fatalf("domain %d: Count = %d, Execute has %d rows", domain, a.Count(), out.Rows())
			}
			for range 10 {
				if _, ok := a.Next(); !ok {
					t.Fatalf("domain %d: the cursor ran out: %v", domain, a.Err())
				}
			}
			a.Close()
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			firstRows()
		}
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		return testing.AllocsPerRun(runs, firstRows), bytes, out.Rows() * len(out.Vars) * int(unsafe.Sizeof(Value(0)))
	}
	small, _, _ := measure(750)
	large, bytes, tableBytes := measure(7500)
	t.Logf("per warm Count + 10 rows: %.0f allocations at 3 × 1 500 rows, %.0f and %.0f bytes at 3 × 15 000 (the answer table: %d bytes)",
		small, large, bytes, tableBytes)
	if large != small {
		t.Fatalf("allocations grow with the input: %.0f at 3 × 1 500 rows, %.0f at 3 × 15 000 rows", small, large)
	}
	if bytes >= float64(tableBytes) {
		t.Fatalf("%.0f bytes per warm Count + 10 rows, not fewer than the %d of the answer table", bytes, tableBytes)
	}
	if bytes >= 64<<10 {
		t.Fatalf("%.0f bytes per warm Count + 10 rows at 3 × 15 000 rows, want < 64 KiB", bytes)
	}
}

// The allocation guard of the leapfrog path, on the exec_cyclic shape: a warm
// Boolean triangle intersects cached encodings through a fixed set of
// iterators and emits its few witnesses into columns, so what it allocates
// does not depend on the relations — the same count at 3 × 1 500 rows as at
// 3 × 15 000.
func TestCyclicWarmExecuteAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := func(domain int) float64 {
		db := regularDB(domain, "e1", "e2", "e3")
		plan, err := Compile(MustParseQuery(`e1(X, Y), e2(Y, Z), e3(Z, X)`),
			WithAutoStrategy(), WithCostModel(CollectStatsSampled(db, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.String(), "fhw=1.5") {
			t.Fatalf("%s: want the one fhw-1.5 bag", plan)
		}
		if _, err := plan.ExecuteBoolean(ctx, db); err != nil { // warm the encoding cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := plan.ExecuteBoolean(ctx, db); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(750), allocs(7500)
	t.Logf("allocations per warm ExecuteBoolean: %.0f at 3 × 1 500 rows, %.0f at 3 × 15 000 rows", small, large)
	if large >= 64 {
		t.Fatalf("%.0f allocations per warm ExecuteBoolean at 3 × 15 000 rows, want < 64", large)
	}
	if large > small+4 {
		t.Fatalf("allocations grow with the input: %.0f at 3 × 1 500 rows, %.0f at 3 × 15 000 rows", small, large)
	}
}

// BenchmarkAcyclicEnum is the exec_enum workload in process: a warm acyclic
// plan enumerating ≈ 60 000 answers over 3 × 15 000 rows.
func BenchmarkAcyclicEnum(b *testing.B) {
	ctx := context.Background()
	db := enumShapeDB(7500)
	plan, err := Compile(MustParseQuery(enumShapeQuery))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.Execute(ctx, db); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(ctx, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcyclicEnumFirstRows is what hdserve does with the exec_enum
// plan: count the ≈ 60 000 answers and walk the 10 a reply renders.
func BenchmarkAcyclicEnumFirstRows(b *testing.B) {
	ctx := context.Background()
	db := enumShapeDB(7500)
	plan, err := Compile(MustParseQuery(enumShapeQuery))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.Execute(ctx, db); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := plan.Answers(ctx, db)
		if err != nil {
			b.Fatal(err)
		}
		for range 10 {
			a.Next()
		}
		a.Close()
	}
}
