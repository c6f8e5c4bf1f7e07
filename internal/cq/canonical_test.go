package cq

import "testing"

func TestCanonicalFormRenamingInvariance(t *testing.T) {
	a := MustParse(`r(X,Y), s(Y,Z), t(Z,X).`)
	b := MustParse(`r(A,B), s(B,C), t(C,A).`) // renamed, same order
	if CanonicalForm(a) != CanonicalForm(b) {
		t.Fatalf("renamed queries differ:\n%s\n%s", CanonicalForm(a), CanonicalForm(b))
	}
	c := MustParse(`r(X,Y), s(Y,Z), t(Z,W).`) // path, not triangle
	if CanonicalForm(a) == CanonicalForm(c) {
		t.Fatal("triangle and path share a canonical form")
	}
	// Reordered atoms intern variables differently, so they must NOT share a
	// key: a cached plan's answer tables carry the compiled query's var IDs.
	d := MustParse(`s(B,C), t(C,A), r(A,B).`)
	if CanonicalForm(a) == CanonicalForm(d) {
		t.Fatal("reordered query must compile separately (var IDs differ)")
	}
}

func TestCanonicalFormHeadsAndConstants(t *testing.T) {
	a := MustParse(`ans(X) :- r(X,Y), r(Y,c).`)
	b := MustParse(`ans(U) :- r(U,V), r(V,c).`)
	if CanonicalForm(a) != CanonicalForm(b) {
		t.Fatal("renamed head variable changed the canonical form")
	}
	d := MustParse(`ans(Y) :- r(X,Y), r(Y,c).`)
	if CanonicalForm(a) == CanonicalForm(d) {
		t.Fatal("different head projection shares a canonical form")
	}
	e := MustParse(`ans(X) :- r(X,Y), r(Y,d).`)
	if CanonicalForm(a) == CanonicalForm(e) {
		t.Fatal("different constant shares a canonical form")
	}
	// a constant named like a canonical variable must not collide with one
	f := MustParse(`ans(X) :- r(X,v0).`)
	g := MustParse(`ans(X) :- r(X,Y).`)
	if CanonicalForm(f) == CanonicalForm(g) {
		t.Fatal("constant v0 collides with a canonical variable")
	}
}

func TestCanonicalFormRepeatedVars(t *testing.T) {
	a := MustParse(`r(X,X,Y).`)
	b := MustParse(`r(U,U,W).`)
	c := MustParse(`r(X,Y,Y).`)
	if CanonicalForm(a) != CanonicalForm(b) {
		t.Fatal("repeated-variable pattern lost under renaming")
	}
	if CanonicalForm(a) == CanonicalForm(c) {
		t.Fatal("distinct repetition patterns share a canonical form")
	}
}

// A constant is one argument of the form whatever characters its name
// holds: a quoted constant with a comma and a quote must not render like the
// two bare constants it spells.
func TestCanonicalFormQuotesConstants(t *testing.T) {
	for _, pair := range [][2]string{
		{`ans(X) :- r("a,'b", X).`, `ans(X) :- r(a, b, X).`},
		{`ans(X) :- r("a,'b", c, X).`, `ans(X) :- r(a, "b,'c", X).`},
		{`ans(X) :- r("v0", X).`, `ans(X) :- r(Y, X).`},
	} {
		if a, b := CanonicalForm(MustParse(pair[0])), CanonicalForm(MustParse(pair[1])); a == b {
			t.Errorf("%s and %s share the canonical form %s", pair[0], pair[1], a)
		}
	}
	if a, b := CanonicalForm(MustParse(`ans(X) :- r("a,'b", X).`)), CanonicalForm(MustParse(`ans(Y) :- r("a,'b", Y).`)); a != b {
		t.Errorf("renaming changed the form of a quoted constant: %s vs %s", a, b)
	}
}
