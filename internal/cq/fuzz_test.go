package cq

import (
	"testing"
)

// FuzzParseQuery pins the parse → render → parse round trip: any input Parse
// accepts must render (Query.String) to a form Parse accepts again, with the
// same canonical form, and the rendering must be a fixpoint after one round.
// This is what keeps query logging, plan-cache debugging and the test
// helpers that splice rendered bodies into new rules (stripHead) honest: a
// query the system can hold, it can also say.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		`ans(X,Y) :- r(X,Y), s(Y,Z).`,
		`r(X,Y), s(Y,Z)`,
		`ans() :- e(X, b'c), f("two words", X).`,
		`t("Upper", lower, _U, 9lives)`,
		`a(X) <- b(X, c1), b(c1, X). % comment`,
		`p()`,
		`q("") , q(X)`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		s := q.String()
		q2, err := Parse(s)
		if err != nil {
			t.Fatalf("rendering %q of %q does not reparse: %v", s, src, err)
		}
		if CanonicalForm(q2) != CanonicalForm(q) {
			t.Fatalf("round trip changed canonical form:\n src  %q\n out  %q\n was  %q\n now  %q",
				src, s, CanonicalForm(q), CanonicalForm(q2))
		}
		if s2 := q2.String(); s2 != s {
			t.Fatalf("rendering is not a fixpoint: %q then %q", s, s2)
		}
	})
}

// FuzzCanonicalForm pins the α-rename invariance the PlanCache key relies
// on: bijectively renaming a query's variables (preserving first-occurrence
// order) must not change CanonicalForm — and renaming must never make two
// distinct queries collide with themselves structurally (the form still
// distinguishes variables from constants of the same name).
func FuzzCanonicalForm(f *testing.F) {
	for _, s := range []string{
		`ans(X) :- r(X,Y), s(Y,X).`,
		`r(A,B), s(B,C), t(C,A)`,
		`p(V0, V1), q(V1, "V0")`,
		`ans(Z) :- e(Z, z).`,
		`ans(X) :- r("a,'b", X).`,
		`ans(X) :- r(a, b, X).`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		ren := renameVars(q)
		if CanonicalForm(ren) != CanonicalForm(q) {
			t.Fatalf("α-rename changed canonical form of %q:\n was %q\n now %q",
				src, CanonicalForm(q), CanonicalForm(ren))
		}
		if ren.NumVars() != q.NumVars() {
			t.Fatalf("α-rename changed variable count: %d → %d", q.NumVars(), ren.NumVars())
		}
	})
}

// renameVars rebuilds q with every variable i renamed to "V<i>" — a
// bijection that preserves first-occurrence order, i.e. an α-renaming.
func renameVars(q *Query) *Query {
	fresh := func(t Term) Term {
		if !t.IsVar {
			return t
		}
		i, ok := q.VarIndex(t.Name)
		if !ok {
			panic("unreachable: variable not interned")
		}
		return Var("V" + itoa(i))
	}
	body := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		args := make([]Term, len(a.Args))
		for j, tm := range a.Args {
			args[j] = fresh(tm)
		}
		body[i] = Atom{Pred: a.Pred, Args: args}
	}
	var head *Atom
	if q.Head != nil {
		args := make([]Term, len(q.Head.Args))
		for j, tm := range q.Head.Args {
			args[j] = fresh(tm)
		}
		head = &Atom{Pred: q.Head.Pred, Args: args}
	}
	return NewQuery(head, body)
}
