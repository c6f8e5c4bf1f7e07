package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"hypertree/internal/cq"
	"hypertree/internal/relation"
)

// ServingDatabase builds the database hdserve -gen-rows serves: the binary
// relations r1..r4 with rows random tuples each over a domain of the given
// size (constants d0, d1, …), interned up front and inserted as raw values.
// Sharing one domain, they answer paths, cycles and stars alike.
func ServingDatabase(rng *rand.Rand, rows, domain int) *relation.Database {
	db := relation.NewDatabase()
	vals := make([]relation.Value, domain)
	for i := range vals {
		vals[i] = db.Intern(fmt.Sprintf("d%d", i))
	}
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		r, err := db.AddRelation(name, 2)
		if err != nil {
			panic(err) // fresh database: names cannot collide
		}
		for i := 0; i < rows; i++ {
			r.Add(vals[rng.Intn(domain)], vals[rng.Intn(domain)])
		}
	}
	return db
}

// RenameQuery α-renames every variable of the query in src to V<salt>_<i>
// (i = the variable's intern index) and re-renders it in rule syntax. The
// result parses back to a query whose canonical form equals the original's —
// tests use it to prove the PlanCache key really is rename-invariant: every
// request carries syntactically fresh variable names, yet all α-equivalent
// requests must hit one cache slot. Constants
// are re-rendered as quoted literals, so any constant value round-trips.
func RenameQuery(src string, salt int) (string, error) {
	q, err := cq.Parse(src)
	if err != nil {
		return "", err
	}
	rename := func(t cq.Term) string {
		if !t.IsVar {
			return `"` + t.Name + `"`
		}
		i, ok := q.VarIndex(t.Name)
		if !ok {
			return t.Name // unreachable: every query variable is interned
		}
		return fmt.Sprintf("V%d_%d", salt, i)
	}
	atom := func(a cq.Atom) string {
		parts := make([]string, len(a.Args))
		for i, t := range a.Args {
			parts[i] = rename(t)
		}
		return a.Pred + "(" + strings.Join(parts, ", ") + ")"
	}
	var b strings.Builder
	if q.Head != nil {
		b.WriteString(atom(*q.Head))
		b.WriteString(" :- ")
	}
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(atom(a))
	}
	b.WriteString(".")
	return b.String(), nil
}
