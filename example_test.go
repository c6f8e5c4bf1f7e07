package hypertree_test

import (
	"context"
	"fmt"

	"hypertree"
)

// The compile-once / execute-many shape of Theorem 4.7: the decomposition
// search runs once in Compile, the Plan then executes against any database.
func Example() {
	q, err := hypertree.ParseQuery(`ans(S) :- enrolled(S,C,R), teaches(P,C,A), parent(P,S).`)
	if err != nil {
		panic(err)
	}
	plan, err := hypertree.Compile(q) // the width search runs here, once
	if err != nil {
		panic(err)
	}
	fmt.Println("width:", plan.Width())

	db := hypertree.NewDatabase()
	db.ParseFacts(`enrolled(ann,cs1,jan). teaches(bob,cs1,y). parent(bob,ann).`)
	table, err := plan.Execute(context.Background(), db)
	if err != nil {
		panic(err)
	}
	fmt.Println("answers:", table.Rows())
	// Output:
	// width: 2
	// answers: 1
}

// Execute returns the answer table over the head variables; StringWith
// renders it sorted, with the database's constant names.
func ExamplePlan_Execute() {
	q := hypertree.MustParseQuery(`ans(X, Z) :- r(X, Y), s(Y, Z).`)
	plan, err := hypertree.Compile(q)
	if err != nil {
		panic(err)
	}
	db := hypertree.NewDatabase()
	db.ParseFacts(`r(a,b). r(c,b). s(b,d).`)
	table, err := plan.Execute(context.Background(), db)
	if err != nil {
		panic(err)
	}
	fmt.Println(table.StringWith(db, q.VarName))
	// Output:
	// (X,Z)
	// a,d
	// c,d
}

// Answers is the cursor behind Execute: the count is known before any row
// is walked, and a caller that renders the first k rows walks only those.
func ExamplePlan_Answers() {
	q := hypertree.MustParseQuery(`ans(X, Z) :- r(X, Y), s(Y, Z).`)
	plan, err := hypertree.Compile(q)
	if err != nil {
		panic(err)
	}
	db := hypertree.NewDatabase()
	db.ParseFacts(`r(a,b). r(c,b). s(b,d). s(b,e).`)
	ans, err := plan.Answers(context.Background(), db)
	if err != nil {
		panic(err)
	}
	defer ans.Close()
	fmt.Println("count:", ans.Count())
	row, _ := ans.Next()
	fmt.Println("first:", db.ValueName(row[0]), db.ValueName(row[1]))
	// Output:
	// count: 4
	// first: a d
}

// FractionalWidth reports the plan's width under fractional λ weights. On
// the triangle query the integral hypertree width is 2, but spreading
// weight 1/2 over all three atoms covers the joint bag at total 3/2 — the
// FractionalDecomposer finds exactly that cover, and by the AGM bound the
// materialised node table shrinks from O(r²) to O(r^1.5).
func ExamplePlan_FractionalWidth() {
	q := hypertree.MustParseQuery(`r(X,Y), s(Y,Z), t(Z,X)`)
	exact, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyHypertree))
	if err != nil {
		panic(err)
	}
	frac, err := hypertree.Compile(q,
		hypertree.WithStrategy(hypertree.StrategyHypertree),
		hypertree.WithDecomposer(hypertree.FractionalDecomposer()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("hw = %d\n", exact.Width())
	fmt.Printf("fhw = %.1f\n", frac.FractionalWidth())
	// Output:
	// hw = 2
	// fhw = 1.5
}

// A PlanCache makes recompilation of α-equivalent queries free: the cache
// key is the canonical query form plus the compile options.
func ExamplePlanCache() {
	cache := hypertree.NewPlanCache(128)
	ctx := context.Background()
	q1 := hypertree.MustParseQuery(`r(X,Y), s(Y,X)`)
	q2 := hypertree.MustParseQuery(`r(A,B), s(B,A)`) // same query, renamed

	if _, err := cache.Compile(ctx, q1); err != nil {
		panic(err)
	}
	if _, err := cache.Compile(ctx, q2); err != nil {
		panic(err)
	}
	m := cache.Metrics()
	fmt.Printf("hits=%d misses=%d cached=%d\n", m.Hits, m.Misses, m.Len)
	// Output:
	// hits=1 misses=1 cached=1
}
