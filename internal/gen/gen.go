// Package gen provides the workload generators behind the experiments: the
// paper's example queries Q1–Q5, the class C_n of Theorem 6.2, parametric
// query families (paths, cycles, grids, cliques), and synthetic databases.
// The paper reports no machine experiments of its own, so these generators
// are the repo's substitute for the authors' (unspecified) workloads; the
// families are the ones the paper's structural claims quantify over.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hypertree/internal/cq"
	"hypertree/internal/relation"
)

// Paper queries (Examples 1.1, 2.1, 3.2, 3.5).
const (
	Q1Src = `enrolled(S, C, R), teaches(P, C, A), parent(P, S)`
	Q2Src = `teaches(P, C, A), enrolled(S, C2, R), parent(P, S)`
	Q3Src = `r(Y, Z), g(X, Y), s1(Y, Z, U), s2(Z, U, W), t1(Y, Z), t2(Z, U)`
	Q4Src = `s1(Y, Z, U), g(X, Y), t1(Z, X), s2(Z, W, X), t2(Y, Z)`
	Q5Src = `a(S, X, X1, C, F), b(S, Y, Y1, C1, F1), c(C, C1, Z), d(X, Z), e(Y, Z),
	         f(F, F1, Z1), g(X1, Z1), h(Y1, Z1), j(J, X, Y, X1, Y1)`
)

// Q1 returns the cyclic query of Example 1.1.
func Q1() *cq.Query { return cq.MustParse(Q1Src) }

// Q2 returns the acyclic query of Example 1.1.
func Q2() *cq.Query { return cq.MustParse(Q2Src) }

// Q3 returns the acyclic query of Example 2.1 (Fig. 3).
func Q3() *cq.Query { return cq.MustParse(Q3Src) }

// Q4 returns the cyclic query of Example 3.2 (Fig. 4, qw = 2).
func Q4() *cq.Query { return cq.MustParse(Q4Src) }

// Q5 returns the running-example query of Example 3.5
// (qw = 3, hw = 2).
func Q5() *cq.Query { return cq.MustParse(Q5Src) }

// ClassCn returns the query Q_n of Theorem 6.2:
//
//	ans ← q(X1..Xn, Y1) ∧ q(X1..Xn, Y2) ∧ ... ∧ q(X1..Xn, Yn)
//
// with qw = hw = 1 but incidence treewidth n.
func ClassCn(n int) *cq.Query {
	var atoms []string
	var xs []string
	for i := 1; i <= n; i++ {
		xs = append(xs, fmt.Sprintf("X%d", i))
	}
	for j := 1; j <= n; j++ {
		atoms = append(atoms, fmt.Sprintf("q(%s, Y%d)", strings.Join(xs, ", "), j))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// Cycle returns the n-cycle query r1(X1,X2), r2(X2,X3), ..., rn(Xn,X1);
// cyclic for n ≥ 3 with hw = 2.
func Cycle(n int) *cq.Query {
	var atoms []string
	for i := 1; i <= n; i++ {
		next := i%n + 1
		atoms = append(atoms, fmt.Sprintf("r%d(X%d, X%d)", i, i, next))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// Path returns the acyclic chain r1(X1,X2), ..., rn(Xn,Xn+1).
func Path(n int) *cq.Query {
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("r%d(X%d, X%d)", i, i, i+1))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// Star returns the acyclic star r1(C,X1), ..., rn(C,Xn).
func Star(n int) *cq.Query {
	var atoms []string
	for i := 1; i <= n; i++ {
		atoms = append(atoms, fmt.Sprintf("r%d(C, X%d)", i, i))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// Grid returns the (rows × cols)-grid query with one binary atom per grid
// edge; its hypertree width grows with min(rows, cols).
func Grid(rows, cols int) *cq.Query {
	var atoms []string
	id := 0
	v := func(r, c int) string { return fmt.Sprintf("X%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				atoms = append(atoms, fmt.Sprintf("h%d(%s, %s)", id, v(r, c), v(r, c+1)))
				id++
			}
			if r+1 < rows {
				atoms = append(atoms, fmt.Sprintf("v%d(%s, %s)", id, v(r, c), v(r+1, c)))
				id++
			}
		}
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// CliqueBinary returns the query with one binary atom per pair of n
// variables (the primal graph is K_n).
func CliqueBinary(n int) *cq.Query {
	var atoms []string
	id := 0
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			atoms = append(atoms, fmt.Sprintf("e%d(X%d, X%d)", id, i, j))
			id++
		}
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// Families returns the named structured queries the decomposers' invariant
// tests range over: the paper's examples, the parametric families and one
// 50-atom random CSP.
func Families() map[string]*cq.Query {
	return map[string]*cq.Query{
		"Q1":        Q1(),
		"Q4":        Q4(),
		"Q5":        Q5(),
		"cycle12":   Cycle(12),
		"grid44":    Grid(4, 4),
		"clique6":   CliqueBinary(6),
		"star8":     Star(8),
		"classC4":   ClassCn(4),
		"path9":     Path(9),
		"csp50atom": RandomCSP(rand.New(rand.NewSource(7)), 30, 50, 3),
	}
}

// RandomQuery returns a query with ne atoms of arity 1..maxArity over nv
// variables, drawn from rng.
func RandomQuery(rng *rand.Rand, nv, ne, maxArity int) *cq.Query {
	var atoms []string
	for e := 0; e < ne; e++ {
		arity := 1 + rng.Intn(maxArity)
		args := make([]string, arity)
		for i := range args {
			args[i] = fmt.Sprintf("X%d", rng.Intn(nv))
		}
		atoms = append(atoms, fmt.Sprintf("p%d(%s)", e, strings.Join(args, ", ")))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// RandomCSP returns a connected, cyclic constraint network with exactly ne
// atoms over nv variables: the first nv atoms form a cycle backbone
// c1(X1,X2), ..., cnv(Xnv,X1) — guaranteeing connectivity and cyclicity for
// nv ≥ 3 — and the remaining ne−nv atoms are random constraints of arity
// 2..maxArity. These are the "random CSP" instances the greedy GHD engine
// targets: large enough that the exact k-decomp search is hopeless, yet
// structured enough that greedy orderings find small-width decompositions.
func RandomCSP(rng *rand.Rand, nv, ne, maxArity int) *cq.Query {
	if nv < 3 {
		panic("gen: RandomCSP needs nv ≥ 3 for a cyclic backbone")
	}
	if ne < nv {
		panic("gen: RandomCSP needs ne ≥ nv atoms")
	}
	if maxArity < 2 {
		maxArity = 2
	}
	var atoms []string
	for i := 1; i <= nv; i++ {
		next := i%nv + 1
		atoms = append(atoms, fmt.Sprintf("c%d(X%d, X%d)", i, i, next))
	}
	for e := nv; e < ne; e++ {
		arity := 2 + rng.Intn(maxArity-1)
		args := make([]string, arity)
		for i := range args {
			args[i] = fmt.Sprintf("X%d", 1+rng.Intn(nv))
		}
		atoms = append(atoms, fmt.Sprintf("p%d(%s)", e, strings.Join(args, ", ")))
	}
	return cq.MustParse(strings.Join(atoms, ", "))
}

// RandomDatabase fills rows random tuples (over a domain of the given size)
// into each relation the query mentions, with matching arities.
func RandomDatabase(rng *rand.Rand, q *cq.Query, rows, domain int) *relation.Database {
	db := relation.NewDatabase()
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		for i := 0; i < rows; i++ {
			args := make([]string, len(a.Args))
			for j := range args {
				args[j] = fmt.Sprintf("d%d", rng.Intn(domain))
			}
			db.AddFact(a.Pred, args...)
		}
	}
	return db
}

// SkewedDatabase is RandomDatabase with a power-law value distribution
// (value i chosen with probability ∝ (i+1)^-alpha over the domain), which
// makes naive join intermediates blow up on the hot values.
func SkewedDatabase(rng *rand.Rand, q *cq.Query, rows, domain int, alpha float64) *relation.Database {
	weights := make([]float64, domain)
	total := 0.0
	for i := range weights {
		w := math.Pow(float64(i+1), -alpha)
		weights[i] = w
		total += w
	}
	pick := func() int {
		x := rng.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return i
			}
		}
		return domain - 1
	}
	db := relation.NewDatabase()
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		for i := 0; i < rows; i++ {
			args := make([]string, len(a.Args))
			for j := range args {
				args[j] = fmt.Sprintf("d%d", pick())
			}
			db.AddFact(a.Pred, args...)
		}
	}
	return db
}

// CostSeparationQuery returns the workload of the cost-vs-width comparison
// (TestCostBasedAutoBeatsWidthOnly, BenchmarkE25CostBased): a 4-cycle big—c2—c3—c4 with a second, parallel edge small
// over the same variables as big. Every width measure ties at 2 (the
// 4-cycle needs two edges per bag and fractional covers cannot beat 2 on
// C4), so width-only ranking cannot tell the decompositions apart — but a
// bag over {X1,X2} may be covered by either big or small, and on a
// SkewedSizeDatabase (where big dwarfs small) the same-width λ placements
// differ by orders of magnitude in evaluation cost.
func CostSeparationQuery() *cq.Query {
	return cq.MustParse(`ans(X1, X3) :- big(X1,X2), c2(X2,X3), c3(X3,X4), c4(X4,X1), small(X1,X2).`)
}

// SkewedSizeDatabase fills the query's relations with zipf-ishly skewed
// *cardinalities*: the i-th distinct predicate (in atom order) receives
// maxRows/(i+1)^alpha random tuples (at least 1) over the given domain, so
// the first relation is the giant and the tail shrinks polynomially. This
// is the regime cost-based planning exists for — RandomDatabase and
// SkewedDatabase give every relation the same row count r, making all
// same-width λ placements cost-equal, whereas here two decompositions of
// identical width can differ by orders of magnitude in Π_{R∈λ} |R|
// depending on whether the giant lands in a λ label. Constants are interned
// up front and tuples inserted as raw values, skipping the per-fact string
// formatting, so multi-hundred-thousand-row giants build quickly.
func SkewedSizeDatabase(rng *rand.Rand, q *cq.Query, maxRows, domain int, alpha float64) *relation.Database {
	db := relation.NewDatabase()
	vals := make([]relation.Value, domain)
	for i := range vals {
		vals[i] = db.Intern(fmt.Sprintf("d%d", i))
	}
	seen := map[string]bool{}
	i := 0
	for _, a := range q.Atoms {
		if seen[a.Pred] {
			continue
		}
		seen[a.Pred] = true
		rows := int(float64(maxRows) / math.Pow(float64(i+1), alpha))
		if rows < 1 {
			rows = 1
		}
		i++
		r, err := db.AddRelation(a.Pred, len(a.Args))
		if err != nil {
			panic(err) // distinct predicates cannot collide on arity here
		}
		tuple := make([]relation.Value, len(a.Args))
		for j := 0; j < rows; j++ {
			for k := range tuple {
				tuple[k] = vals[rng.Intn(domain)]
			}
			r.Add(tuple...)
		}
	}
	return db
}

// RegularDatabase fills every relation of q with about rows tuples over
// the constants d0..d<domain-1>, random but degree-regular: each column is
// a run of random permutations of the domain, the last one partial, so
// every constant occurs in every column ⌊rows/domain⌋ times or once more
// (set semantics folds the few tuples two rounds both draw). Cardinalities,
// distinct counts and the number of tuples each join step produces then
// depend on rows and domain, hardly on the seed — the shape of the serving
// benchmark's relations, where a plan's work is a property of the plan and
// not of the draw, and a join of two relations over a shared variable holds
// about rows²/domain tuples against the rows² of their product.
func RegularDatabase(rng *rand.Rand, q *cq.Query, rows, domain int) *relation.Database {
	db := relation.NewDatabase()
	vals := make([]relation.Value, domain)
	for i := range vals {
		vals[i] = db.Intern(fmt.Sprintf("d%d", i))
	}
	for _, a := range q.Atoms {
		if db.Relation(a.Pred) != nil {
			continue
		}
		r, err := db.AddRelation(a.Pred, len(a.Args))
		if err != nil {
			panic(err) // distinct predicates cannot collide on arity here
		}
		tuple := make([]relation.Value, len(a.Args))
		perms := make([][]int, len(a.Args))
		for left := rows; left > 0; left -= domain {
			for k := range perms {
				perms[k] = rng.Perm(domain)
			}
			for i := 0; i < min(left, domain); i++ {
				for k := range tuple {
					tuple[k] = vals[perms[k][i]]
				}
				r.Add(tuple...)
			}
		}
	}
	return db
}

// UniversityDatabase returns an Example 1.1 instance with n students; when
// withWitness is true, one professor teaches a course their own child is
// enrolled in, making Q1 true.
func UniversityDatabase(n int, withWitness bool) *relation.Database {
	db := relation.NewDatabase()
	for i := 0; i < n; i++ {
		student := fmt.Sprintf("s%d", i)
		course := fmt.Sprintf("c%d", i%17)
		prof := fmt.Sprintf("p%d", i%7)
		db.AddFact("enrolled", student, course, fmt.Sprintf("day%d", i%28))
		db.AddFact("teaches", prof, fmt.Sprintf("c%d", (i+3)%17), "yes")
		db.AddFact("parent", prof, fmt.Sprintf("s%d", (i+1)%n))
	}
	if withWitness {
		db.AddFact("enrolled", "child", "course42", "day1")
		db.AddFact("teaches", "prof42", "course42", "yes")
		db.AddFact("parent", "prof42", "child")
	}
	return db
}
