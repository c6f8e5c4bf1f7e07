package hypertree

import (
	"math/rand"
	"testing"

	"hypertree/internal/gen"
)

// Cross-strategy property test: on random queries and random databases,
// every applicable evaluation strategy returns the same answer relation.
// This is the end-to-end correctness argument for Lemma 4.6 + Yannakakis
// against the semantics-by-definition naive join.
func TestPropertyStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		q := gen.RandomQuery(rng, 2+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(3))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(20), 2+rng.Intn(5))

		tabNaive, err := evaluate(db, q, StrategyNaive)
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		tabHD, err := evaluate(db, q, StrategyHypertree)
		if err != nil {
			t.Fatalf("trial %d hd: %v", trial, err)
		}
		if !tabNaive.Equal(tabHD) {
			t.Fatalf("trial %d: naive and hypertree disagree on %s", trial, q)
		}
		if IsAcyclic(q) {
			tabY, err := evaluate(db, q, StrategyAcyclic)
			if err != nil {
				t.Fatalf("trial %d yannakakis: %v", trial, err)
			}
			if !tabY.Equal(tabNaive) {
				t.Fatalf("trial %d: yannakakis disagrees on %s", trial, q)
			}
		}
	}
}

// The same agreement must hold for non-Boolean queries with projection.
func TestPropertyStrategiesAgreeWithHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		base := gen.RandomQuery(rng, 3+rng.Intn(3), 2+rng.Intn(3), 2)
		// project onto one random body variable
		v := base.VarName(rng.Intn(base.NumVars()))
		q := MustParseQuery(`ans(` + v + `) :- ` + stripHead(base.String()))
		db := gen.RandomDatabase(rng, q, 1+rng.Intn(15), 3)

		tabNaive, err := evaluate(db, q, StrategyNaive)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tabHD, err := evaluate(db, q, StrategyHypertree)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !tabNaive.Equal(tabHD) {
			t.Fatalf("trial %d: projections disagree on %s", trial, q)
		}
	}
}

// stripHead removes the "ans() :- " prefix produced by Query.String for
// headless queries.
func stripHead(s string) string {
	const prefix = "ans() :- "
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):]
	}
	return s
}
