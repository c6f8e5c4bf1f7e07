package hdeval

import (
	"context"
	"fmt"
	"testing"

	"hypertree/internal/cq"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// bindKey renders each atom pattern and bound order apart: a constant
// spelled like a variable's number, or like its rendering under another
// scheme ("v1"), keys apart from that variable, and so do quoted names
// holding "," or "|", which an unquoted rendering would read as several
// arguments or as the order. The same pattern in another query keys alike.
func TestBindKeyInjective(t *testing.T) {
	cases := []struct {
		src   string
		order []int
	}{
		{`r(X, Y)`, []int{0}},
		{`r(X, v1)`, []int{0}},
		{`r(X, "1")`, []int{0}},
		{`r(X, Y)`, []int{0, 1}},
		{`r(X, Y)`, []int{1, 0}},
		{`r(X, Y)`, nil},
		{`r(X, X)`, []int{0}},
		{`r(X, "a,b")`, []int{0}},
		{`r(X, "a","b")`, []int{0}},
		{`r(X, "b|0")`, nil},
		{`r(X, b)`, []int{0}},
		{`r(X, "b|0|0")`, nil},
		{`r(X, "b")`, []int{0, 0}},
		{`r(X, "0|0")`, nil},
		{`r(X, "0")`, []int{0}},
	}
	seen := map[string]string{}
	for _, c := range cases {
		key := bindKey(cq.MustParse(c.src), 0, c.order)
		id := fmt.Sprint(c.src, c.order)
		if prev, ok := seen[key]; ok {
			t.Fatalf("%s and %s share the key %q", prev, id, key)
		}
		seen[key] = id
	}
	if a, b := bindKey(cq.MustParse(`r(X, Y), s(Y, Z)`), 0, []int{0, 1}), bindKey(cq.MustParse(`r(X, Y)`), 0, []int{0, 1}); a != b {
		t.Fatalf("one pattern keys %q in one query and %q in another", a, b)
	}
}

// Encodings belong to the database, not the plan: two templates that bind
// r1(X1, X2) under one key read one *Columnar, and the second plan's first
// execution takes it from the cache.
func TestTemplatesShareOneEncoding(t *testing.T) {
	db := relation.NewDatabase()
	if err := db.ParseFacts(`r1(a, b). r1(b, c). r1(c, a). r2(b, d). r3(c, e).`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var keys []string
	var encs []*relation.Columnar
	for _, src := range []string{`ans(X1, X2) :- r1(X1, X2), r2(X2, X3).`, `ans(X1, X2) :- r1(X1, X2), r3(X2, X3).`} {
		q := cq.MustParse(src)
		e, _ := width1(t, q)
		h0, _ := db.EncodedCounts()
		root, err := e.Root(ctx, db, 1)
		if err != nil {
			t.Fatal(err)
		}
		tables := preorder(root, nil)
		for i, n := range e.Nodes() {
			if q.Atoms[e.edgeToAtom[n.lam[0]]].Pred == "r1" {
				keys, encs = append(keys, n.keys[0]), append(encs, tables[i].Enc)
			}
		}
		if h1, _ := db.EncodedCounts(); len(encs) == 2 && h1 == h0 {
			t.Fatalf("%s: the second template's execution hit nothing", src)
		}
	}
	if len(encs) != 2 || keys[0] != keys[1] {
		t.Fatalf("r1's nodes: keys %q, want one key in each template", keys)
	}
	if encs[0] != encs[1] {
		t.Fatal("two templates binding r1 under one key read two encodings")
	}
}

// preorder lists a materialised tree's nodes in the order of Nodes.
func preorder(n *yannakakis.Node, out []*yannakakis.Node) []*yannakakis.Node {
	out = append(out, n)
	for _, c := range n.Children {
		out = preorder(c, out)
	}
	return out
}

// A constant missing from the dictionary selects nothing, so its atom is
// bound to no rows without a scan and without the cache: executions that
// each name a fresh constant leave the relation's entries and the miss
// counter where they were, however many there are. A relation whose arity
// differs from the atom's is still reported.
func TestUnknownConstantsAddNoEncoding(t *testing.T) {
	db := relation.NewDatabase()
	if err := db.ParseFacts(`r1(a, b). r1(b, c). r2(b, d). r2(c, e).`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(src string) (int, error) {
		t.Helper()
		e, _ := width1(t, cq.MustParse(src))
		root, err := e.Root(ctx, db, 1)
		if err != nil {
			return 0, err
		}
		ans, err := yannakakis.NewAnswers(ctx, root, e.head)
		if err != nil {
			return 0, err
		}
		defer ans.Close()
		return ans.Count(), nil
	}
	if n, err := run(`ans(X) :- r1(X, "b"), r2(X, Y).`); err != nil || n != 0 {
		t.Fatalf("known constant: %d answers, err = %v", n, err)
	}
	r1 := db.Relation("r1")
	entries, r2entries := r1.Encodings(), db.Relation("r2").Encodings()
	_, m0 := db.EncodedCounts()
	for i := range 100 {
		if n, err := run(fmt.Sprintf(`ans(X) :- r1(X, "fresh%d"), r2(X, Y).`, i)); err != nil || n != 0 {
			t.Fatalf("fresh constant %d: %d answers, err = %v", i, n, err)
		}
	}
	if got := r1.Encodings(); got != entries {
		t.Fatalf("100 fresh constants took r1 from %d to %d encodings", entries, got)
	}
	if got := db.Relation("r2").Encodings(); got != r2entries {
		t.Fatalf("r2's encodings went from %d to %d", r2entries, got)
	}
	if _, m1 := db.EncodedCounts(); m1 != m0 {
		t.Fatalf("fresh constants counted %d misses", m1-m0)
	}
	if _, err := run(`ans(X) :- r1(X, "fresh", Z), r2(X, Y).`); err == nil {
		t.Fatal("an atom of arity 3 over r1/2 bound without an error")
	}
}
