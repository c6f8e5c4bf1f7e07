package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunAllStrategies(t *testing.T) {
	q := write(t, "q.cq", `r(X,Y), s(Y,Z), t(Z,X).`)
	db := write(t, "f.db", "r(a,b). s(b,c). t(c,a).")
	for _, s := range []string{"auto", "naive", "hd", "ghd", "fhd", "qd"} {
		if err := run(q, db, "", s, 0, 0, true, true, false, false, false, 0, "hash"); err != nil {
			t.Errorf("strategy %s: %v", s, err)
		}
	}
	// acyclic strategy on a cyclic query must fail
	if err := run(q, db, "", "acyclic", 0, 0, false, false, false, false, false, 0, "hash"); err == nil {
		t.Error("acyclic strategy on cyclic query accepted")
	}
}

func TestRunRejectsUnknownStrategyWithFullList(t *testing.T) {
	q := write(t, "q.cq", `r(X,Y).`)
	db := write(t, "f.db", "r(a,b).")
	err := run(q, db, "", "bogus", 0, 0, false, false, false, false, false, 0, "hash")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// the regression this pins: the error must list *every* valid name,
	// including the ones added after the original error path was written
	for _, want := range []string{"auto", "naive", "acyclic", "hd", "ghd", "fhd", "qd"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid strategy %q", err, want)
		}
	}
}

func TestRunNonBoolean(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z).`)
	db := write(t, "f.db", "r(a,b). s(b,c).")
	if err := run(q, db, "", "auto", 0, 0, false, false, false, false, false, 0, "hash"); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlanReuseAcrossDatabases(t *testing.T) {
	q := write(t, "q.cq", `r(X,Y), s(Y,Z), t(Z,X).`)
	db1 := write(t, "f1.db", "r(a,b). s(b,c). t(c,a).")
	db2 := write(t, "f2.db", "r(a,b). s(b,c).")
	if err := run(q, db1, db2, "hd", 2, time.Minute, true, false, false, false, false, 0, "hash"); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "", "", "auto", 0, 0, false, false, false, false, false, 0, "hash"); err == nil {
		t.Error("missing flags accepted")
	}
	q := write(t, "q.cq", `r(X).`)
	if err := run(q, "/does/not/exist", "", "auto", 0, 0, false, false, false, false, false, 0, "hash"); err == nil {
		t.Error("missing db accepted")
	}
	bad := write(t, "bad.db", "zzz")
	if err := run(q, bad, "", "auto", 0, 0, false, false, false, false, false, 0, "hash"); err == nil {
		t.Error("malformed facts accepted")
	}
	badQ := write(t, "bad.cq", "((")
	db := write(t, "f.db", "r(a).")
	if err := run(badQ, db, "", "auto", 0, 0, false, false, false, false, false, 0, "hash"); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestRunSharded(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z), t(Z,X).`)
	db := write(t, "f.db", "r(a,b). s(b,c). t(c,a). r(x,y).")
	for _, part := range []string{"hash", "rr"} {
		if err := run(q, db, "", "hd", 0, 0, true, false, false, false, false, 3, part); err != nil {
			t.Errorf("sharded %s: %v", part, err)
		}
	}
	// fhd plans must ride the sharded path too
	if err := run(q, db, "", "fhd", 0, 0, false, true, false, false, false, 3, "hash"); err != nil {
		t.Errorf("sharded fhd: %v", err)
	}
	if err := run(q, db, "", "hd", 0, 0, false, false, false, false, false, 3, "bogus"); err == nil {
		t.Error("unknown partition strategy accepted")
	}
}

func TestRunStatsAndExplain(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z), t(Z,X), r2(X,Y).`)
	db := write(t, "f.db", "r(a,b). r(a,c). r(b,c). s(b,c). t(c,a). r2(a,b).")
	// cost-based planning plus the explain report, across the racing and
	// fixed-engine strategies, unsharded and sharded
	for _, s := range []string{"auto", "hd", "ghd", "fhd"} {
		if err := run(q, db, "", s, 0, 0, false, true, true, true, false, 0, "hash"); err != nil {
			t.Errorf("strategy %s with -stats -explain: %v", s, err)
		}
	}
	if err := run(q, db, "", "auto", 0, 0, false, false, true, true, false, 2, "hash"); err != nil {
		t.Errorf("sharded with -stats -explain: %v", err)
	}
	// -explain without -stats: width-only report, still fine
	if err := run(q, db, "", "ghd", 0, 0, false, false, false, true, false, 0, "hash"); err != nil {
		t.Errorf("-explain without -stats: %v", err)
	}
}

func TestRunAnalyze(t *testing.T) {
	q := write(t, "q.cq", `ans(X) :- r(X,Y), s(Y,Z), t(Z,X), r2(X,Y).`)
	db := write(t, "f.db", "r(a,b). r(a,c). r(b,c). s(b,c). t(c,a). r2(a,b).")
	// -analyze with and without -stats, against the racing and fixed
	// engines, unsharded and sharded — the report must render everywhere.
	for _, s := range []string{"auto", "hd", "fhd"} {
		if err := run(q, db, "", s, 0, 0, false, false, true, false, true, 0, "hash"); err != nil {
			t.Errorf("strategy %s with -stats -analyze: %v", s, err)
		}
	}
	if err := run(q, db, "", "auto", 0, 0, false, false, true, false, true, 2, "hash"); err != nil {
		t.Errorf("sharded -analyze: %v", err)
	}
	if err := run(q, db, "", "acyclic", 0, 0, false, false, false, false, true, 0, "hash"); err == nil {
		// cyclic query under acyclic strategy still fails with -analyze on
	} else if err := run(write(t, "q2.cq", `ans(A) :- r(A,B).`), db, "", "acyclic", 0, 0, false, false, false, false, true, 0, "hash"); err != nil {
		t.Errorf("acyclic -analyze: %v", err)
	}
}
