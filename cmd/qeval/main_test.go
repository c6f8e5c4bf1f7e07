package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertree"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// triangle is the cyclic query most cases run: hw = 2, fhw = 3/2.
const triangle = `r(X,Y), s(Y,Z), t(Z,X).`

// output runs qeval with c and returns what it printed.
func output(t *testing.T, c config) (string, error) {
	t.Helper()
	if c.strategy == "" {
		c.strategy = "auto"
	}
	var b bytes.Buffer
	err := run(&b, c)
	return b.String(), err
}

// mustOutput is output for runs that must succeed.
func mustOutput(t *testing.T, c config) string {
	t.Helper()
	out, err := output(t, c)
	if err != nil {
		t.Fatalf("%+v: %v\n%s", c, err, out)
	}
	return out
}

// contains fails the test unless out holds every want.
func contains(t *testing.T, what, out string, want ...string) {
	t.Helper()
	for _, s := range want {
		if !strings.Contains(out, s) {
			t.Errorf("%s: output lacks %q:\n%s", what, s, out)
		}
	}
}

func TestRunAllStrategies(t *testing.T) {
	q := write(t, "q.cq", triangle)
	db := write(t, "f.db", "r(a,b). s(b,c). t(c,a).")
	for _, s := range []string{"auto", "naive", "hd", "ghd", "fhd", "qd"} {
		out := mustOutput(t, config{query: q, db: db, strategy: s, timing: true, widths: true})
		contains(t, s, out, "true\n", "width report: ", "compiled plan{")
	}
	// acyclic strategy on a cyclic query must fail
	if _, err := output(t, config{query: q, db: db, strategy: "acyclic"}); err == nil {
		t.Error("acyclic strategy on cyclic query accepted")
	}
}

// rejectsUnknown fails the test unless c is refused, before printing
// anything, with an error that lists every valid strategy name.
func rejectsUnknown(t *testing.T, c config) {
	t.Helper()
	out, err := output(t, c)
	if err == nil {
		t.Fatalf("unknown strategy %q accepted", c.strategy)
	}
	if out != "" {
		t.Errorf("strategy %q: printed before refusing:\n%s", c.strategy, out)
	}
	for _, want := range []string{"auto", "naive", "acyclic", "hd", "ghd", "fhd", "qd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid strategy %q", err, want)
		}
	}
}

// An unknown strategy is refused with every valid name: the error must
// list the names added after the original error path was written too.
func TestRunRejectsUnknownStrategyWithFullList(t *testing.T) {
	q := write(t, "q.cq", `r(X,Y).`)
	db := write(t, "f.db", "r(a,b).")
	rejectsUnknown(t, config{query: q, db: db, strategy: "bogus"})
}

// Compiling only (no -db) refuses an unknown strategy the same way.
func TestCompileRejectsUnknownStrategy(t *testing.T) {
	q := write(t, "q.cq", `r(X,Y).`)
	rejectsUnknown(t, config{query: q, strategy: "minfill"})
}

// strategyOptions refuses an unknown name with an error naming every entry
// of strategies, and strategies holds exactly the seven names qeval
// documents.
func TestStrategyOptionsListsEveryStrategy(t *testing.T) {
	if _, err := strategyOptions("minfill"); err == nil {
		t.Fatal("unknown name accepted")
	} else {
		for _, name := range strategies {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("strategyOptions error %q omits %q", err, name)
			}
		}
	}
	if len(strategies) != 7 {
		t.Fatalf("strategies = %v, want the seven of the doc comment", strategies)
	}
}

// Every strategy name resolves, and the compiled plan carries the engine
// the name promises.
func TestStrategyOptionsRoundTrip(t *testing.T) {
	q := hypertree.MustParseQuery(triangle)
	want := map[string]string{"hd": "k-decomp", "ghd": "ghd", "fhd": "fhd", "qd": "query-decomp"}
	for _, name := range strategies {
		opts, err := strategyOptions(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "acyclic" {
			continue // cyclic query: compilation legitimately fails
		}
		p, err := hypertree.Compile(q, opts...)
		if err != nil {
			t.Fatalf("%s compile: %v", name, err)
		}
		switch got := p.DecomposerName(); {
		case name == "auto" && !strings.HasPrefix(got, "auto("):
			t.Errorf("auto: decomposer %q", got)
		case want[name] != "" && got != want[name]:
			t.Errorf("%s: decomposer %q, want %q", name, got, want[name])
		}
	}
}

func TestRunNonBoolean(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z).`)
	db := write(t, "f.db", "r(a,b). s(b,c).")
	out := mustOutput(t, config{query: q, db: db})
	contains(t, "non-Boolean", out, "1 answers\n(X)\na\n")
}

func TestRunPlanReuseAcrossDatabases(t *testing.T) {
	q := write(t, "q.cq", triangle)
	db1 := write(t, "f1.db", "r(a,b). s(b,c). t(c,a).")
	db2 := write(t, "f2.db", "r(a,b). s(b,c).")
	out := mustOutput(t, config{query: q, db: db1, db2: db2, strategy: "hd", workers: 2, timeout: time.Minute, timing: true})
	contains(t, "two databases", out, "-- "+db1+" --\ntrue\n", "-- "+db2+" --\nfalse\n")
	if n := strings.Count(out, "compiled "); n != 2 {
		t.Errorf("want one timing line per database, got %d:\n%s", n, out)
	}
}

func TestRunErrors(t *testing.T) {
	q := write(t, "q.cq", `r(X).`)
	if _, err := output(t, config{query: q, db: "/does/not/exist"}); err == nil {
		t.Error("missing db accepted")
	}
	bad := write(t, "bad.db", "zzz")
	if _, err := output(t, config{query: q, db: bad}); err == nil {
		t.Error("malformed facts accepted")
	}
	badQ := write(t, "bad.cq", "((")
	db := write(t, "f.db", "r(a).")
	if _, err := output(t, config{query: badQ, db: db}); err == nil {
		t.Error("malformed query accepted")
	}
	for _, c := range []config{
		{query: q, db2: db},
		{query: q, stats: true},
		{query: q, db: db, qw: true},
		{query: q, db: db, dot: true},
	} {
		if _, err := output(t, c); err == nil {
			t.Errorf("%+v: accepted a flag its mode does not use", c)
		}
	}
}

func TestRunStatsAndExplain(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z), t(Z,X), r2(X,Y).`)
	db := write(t, "f.db", "r(a,b). r(a,c). r(b,c). s(b,c). t(c,a). r2(a,b).")
	// cost-based planning plus the explain report, across the racing and
	// fixed-engine strategies, sequential and on four workers
	for _, s := range []string{"auto", "hd", "ghd", "fhd"} {
		out := mustOutput(t, config{query: q, db: db, strategy: s, widths: true, stats: true, explain: true})
		contains(t, s+" -stats -explain", out, "cost-based", "est=", "1 answers\n")
	}
	out := mustOutput(t, config{query: q, db: db, stats: true, explain: true, workers: 4})
	contains(t, "-workers 4 -stats -explain", out, "cost-based", "1 answers\n")
	// -explain without -stats: width-only report, still fine
	out = mustOutput(t, config{query: q, db: db, strategy: "ghd", explain: true})
	contains(t, "-explain without -stats", out, "width-only")
}

func TestRunAnalyze(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z), t(Z,X), r2(X,Y).`)
	db := write(t, "f.db", "r(a,b). r(a,c). r(b,c). s(b,c). t(c,a). r2(a,b).")
	// -analyze with -stats, against the racing and fixed engines,
	// sequential and on four workers — the report must render everywhere.
	for _, s := range []string{"auto", "hd", "fhd"} {
		out := mustOutput(t, config{query: q, db: db, strategy: s, stats: true, analyze: true})
		contains(t, s+" -analyze", out, "actual=")
	}
	out := mustOutput(t, config{query: q, db: db, stats: true, analyze: true, workers: 4})
	contains(t, "-workers 4 -analyze", out, "actual=")
	acyclic := write(t, "q2.cq", `ans(A) :- r(A,B).`)
	out = mustOutput(t, config{query: acyclic, db: db, strategy: "acyclic", analyze: true})
	contains(t, "acyclic -analyze", out, "kernel=scan")
}

// Without -db qeval compiles and prints the query, its acyclicity, the
// width, the decomposer and the decomposition.
func TestCompileComputesWidth(t *testing.T) {
	q := write(t, "q.cq", triangle)
	out := mustOutput(t, config{query: q, strategy: "hd"})
	contains(t, "hd", out,
		"query: ", "atoms: 3, variables: 3\n", "acyclic: false\n",
		"hypertree width: 2\n", "decomposer: k-decomp\n",
		"decomposition (atom representation", "decomposition (χ / λ):")
}

// -k above the width finds a decomposition within it; below the width the
// exact engines prove the lower bound and exit cleanly.
func TestCompileBoundedAndParallel(t *testing.T) {
	q := write(t, "q.cq", triangle)
	out := mustOutput(t, config{query: q, strategy: "hd", k: 2, workers: 2, jointree: true})
	contains(t, "hd -k 2", out, "hw(Q) ≤ 2, found width 2\n", "no join tree: query is cyclic\n")
	out = mustOutput(t, config{query: q, strategy: "hd", k: 1})
	if !strings.HasSuffix(out, "hw(Q) > 1\n") || strings.Contains(out, "decomposition") {
		t.Errorf("hd -k 1 must stop at the lower bound:\n%s", out)
	}
	out = mustOutput(t, config{query: q, strategy: "qd", k: 1})
	contains(t, "qd -k 1", out, "qw(Q) > 1\n")
}

// Every strategy compiles the triangle and prints the width line its
// engine can claim; the heuristics, short of a width bound, say they prove
// nothing.
func TestCompileEveryStrategy(t *testing.T) {
	q := write(t, "q.cq", triangle)
	for s, want := range map[string]string{
		"hd":   "hypertree width: 2\n",
		"qd":   "hypertree width: 2\n",
		"ghd":  "generalized hypertree width (greedy upper bound): 2\n",
		"fhd":  "fractional hypertree width (achieved): 1.5 (integral support width 3)\n",
		"auto": "decomposer: auto(",
	} {
		out := mustOutput(t, config{query: q, strategy: s, widths: true})
		contains(t, s, out, want, "width report: width=", "decomposition (χ / λ):")
	}
	out := mustOutput(t, config{query: q, strategy: "naive"})
	contains(t, "naive", out, "no decomposition: plan{naive}")
	if _, err := output(t, config{query: q, strategy: "acyclic"}); err == nil {
		t.Error("acyclic strategy on a cyclic query accepted")
	}
	for _, s := range []string{"ghd", "fhd"} {
		out := mustOutput(t, config{query: q, strategy: s, k: 1})
		contains(t, s+" -k 1", out, "strategy "+s+" found no decomposition of width ≤ 1 (heuristics prove no lower bound)\n")
	}
}

// On an acyclic query hd prints the width-1 decomposition Theorem 4.5
// promises, while auto resolves to Yannakakis and needs none.
func TestCompileAcyclicQuery(t *testing.T) {
	q := write(t, "q.cq", `a(X,Y), b(Y,Z).`)
	out := mustOutput(t, config{query: q, strategy: "hd", jointree: true})
	contains(t, "hd", out, "acyclic: true\n", "join tree (atom indices):", "hypertree width: 1\n")
	out = mustOutput(t, config{query: q, widths: true})
	contains(t, "auto", out, "no decomposition: plan{acyclic}", "width report: no decomposition")
}

func TestCompileQueryWidthDotAndJoinTree(t *testing.T) {
	q := write(t, "q.cq", `a(X,Y), b(Y,Z).`)
	out := mustOutput(t, config{query: q, strategy: "hd", qw: true, dot: true, jointree: true})
	contains(t, "-qw -dot -jointree", out, "join tree (atom indices):", "digraph", "query width: 1\n")
	if strings.Contains(out, "decomposition (χ / λ):") {
		t.Errorf("-dot must replace the text decomposition:\n%s", out)
	}
}

// With -query omitted the rule is read from stdin.
func TestCompileReadsStdin(t *testing.T) {
	in, err := os.Open(write(t, "q.cq", triangle))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	stdin := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = stdin }()
	out := mustOutput(t, config{strategy: "hd"})
	contains(t, "stdin", out, "atoms: 3", "hypertree width: 2\n")
}

func TestCompileErrors(t *testing.T) {
	if _, err := output(t, config{query: "/does/not/exist"}); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := output(t, config{query: write(t, "bad.cq", `not a query`)}); err == nil {
		t.Error("malformed query accepted")
	}
	clique := write(t, "clique.cq", `a(X,Y), b(X,Z), c(X,W), d(Y,Z), e(Y,W), f(Z,W).`)
	_, err := output(t, config{query: clique, strategy: "hd", budget: 1})
	if err == nil || err.Error() != "search exceeded the 1-step budget" {
		t.Errorf("-budget 1: err = %v", err)
	}
	_, err = output(t, config{query: clique, strategy: "hd", timeout: time.Nanosecond})
	if err == nil || err.Error() != "search exceeded the 1ns timeout" {
		t.Errorf("-timeout 1ns: err = %v", err)
	}
}

func TestCompileExplain(t *testing.T) {
	q := write(t, "q.cq", triangle)
	for _, s := range []string{"hd", "ghd", "fhd", "auto"} {
		out := mustOutput(t, config{query: q, strategy: s, explain: true})
		contains(t, s+" -explain", out, "width-only", "λ{")
	}
}

// -analyze renders the compile trace — under auto, every race entrant's
// span with its verdict.
func TestCompileAnalyze(t *testing.T) {
	q := write(t, "q.cq", triangle)
	out := mustOutput(t, config{query: q, strategy: "hd", analyze: true})
	contains(t, "hd -analyze", out, "compile")
	out = mustOutput(t, config{query: q, analyze: true})
	contains(t, "auto -analyze", out, "compile/race", "k-decomp hw>1 (capped at ⌊fhw⌋) [lose]", "fhd width=3 fhw=1.5 [win]", "ghd width=2 fhw=2 [lose]")
}
