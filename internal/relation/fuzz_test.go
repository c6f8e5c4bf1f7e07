package relation

import (
	"slices"
	"testing"
)

// FuzzParseFacts pins what POST /admin/ingest runs on request bodies: no
// input may panic ParseFacts, and whatever it accepts must survive the
// facts rendering — every relation's StringWith output parses back to the
// same relation names, arities and tuple sets.
func FuzzParseFacts(f *testing.F) {
	for _, s := range []string{
		"enrolled(ann, cs101, jan).\nteaches(bob, cs101, t1). # comment\nflag().",
		"r(a,b). r(b,c). s(a)",
		"% comment only\n\n",
		"r(a) s(b).",
		"r(a) . . s(b)",
		"r(a,,b).",
		"r( a b , c(d ).",
		"_p'1(x.y, 'q')",
		"r(a). r(a, b).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		db := NewDatabase()
		if db.ParseFacts(src) != nil {
			t.Skip()
		}
		again := NewDatabase()
		for _, name := range db.RelationNames() {
			if err := again.ParseFacts(db.Relation(name).StringWith(db)); err != nil {
				t.Fatalf("%q: relation %s renders as facts that do not parse: %v", src, name, err)
			}
		}
		if !slices.Equal(again.RelationNames(), db.RelationNames()) {
			t.Fatalf("%q: relations %q reparse as %q", src, db.RelationNames(), again.RelationNames())
		}
		for _, name := range db.RelationNames() {
			r, r2 := db.Relation(name), again.Relation(name)
			if r.Arity != r2.Arity || r.StringWith(db) != r2.StringWith(again) {
				t.Fatalf("%q: relation %s/%d reparses as %s/%d:\n%s\n%s",
					src, name, r.Arity, name, r2.Arity, r.StringWith(db), r2.StringWith(again))
			}
		}
	})
}
