package gen

import (
	"testing"

	"hypertree/internal/cq"
)

func TestRenameQueryPreservesCanonicalForm(t *testing.T) {
	for _, tpl := range []struct{ Name, Src string }{
		{Name: "path3", Src: `r1(X1, X2), r2(X2, X3), r3(X3, X4)`},
		{Name: "path2-enum", Src: `ans(X1, X3) :- r1(X1, X2), r2(X2, X3).`},
		{Name: "triangle", Src: `r1(X1, X2), r2(X2, X3), r3(X3, X1)`},
		{Name: "cycle4", Src: `r1(X1, X2), r2(X2, X3), r3(X3, X4), r4(X4, X1)`},
		{Name: "star3", Src: `r1(C, X1), r2(C, X2), r3(C, X3)`},
		{Name: "constants", Src: `ans(X) :- r(X, c1), s("lit two", X).`},
	} {
		orig := cq.MustParse(tpl.Src)
		renamed, err := RenameQuery(tpl.Src, 42)
		if err != nil {
			t.Fatalf("%s: %v", tpl.Name, err)
		}
		if renamed == tpl.Src {
			t.Fatalf("%s: rename was a no-op", tpl.Name)
		}
		rq, err := cq.Parse(renamed)
		if err != nil {
			t.Fatalf("%s: renamed source %q does not parse back: %v", tpl.Name, renamed, err)
		}
		if got, want := cq.CanonicalForm(rq), cq.CanonicalForm(orig); got != want {
			t.Fatalf("%s: canonical form drifted\n  orig    %s\n  renamed %s", tpl.Name, want, got)
		}
		// Distinct salts yield distinct sources (fresh names per request).
		other, _ := RenameQuery(tpl.Src, 43)
		if other == renamed {
			t.Fatalf("%s: salts 42 and 43 collide", tpl.Name)
		}
	}
}
