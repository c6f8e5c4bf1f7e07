package gen

import (
	"fmt"
	"math/rand"

	"hypertree/internal/cq"
	"hypertree/internal/jointree"
	"hypertree/internal/relation"
)

// This file is the shared harness of the kernel differential-testing layer:
// randomized ⟨query, database⟩ cases over which every join kernel and every
// execution path must agree answer-for-answer. It lives in gen (not in a
// _test file) so the root differential suite, the package suites and
// future fuzz drivers draw from one generator.

// KernelCase is one randomized differential-testing instance: a query (half
// of them headed, the rest Boolean), a database to run it against, and
// whether the query's hypergraph is cyclic (acyclic cases exercise the
// completion/degenerate-decomposition paths, cyclic ones the real bags).
type KernelCase struct {
	Name   string
	Q      *cq.Query
	DB     *relation.Database
	Cyclic bool
}

// WithRandomHead returns q rebuilt with a fresh "ans" head over a random
// non-empty subset of its variables, in random order — turning a Boolean
// query into a headed one without touching its body. The head subset is
// what makes the differential suite cover existential variables: every
// variable dropped from the head must be projected away identically by
// every kernel.
func WithRandomHead(rng *rand.Rand, q *cq.Query) *cq.Query {
	n := q.NumVars()
	if n == 0 {
		return q
	}
	perm := rng.Perm(n)
	k := 1 + rng.Intn(n)
	args := make([]cq.Term, 0, k)
	for _, v := range perm[:k] {
		args = append(args, cq.Var(q.VarName(v)))
	}
	body := append([]cq.Atom(nil), q.Atoms...)
	return cq.NewQuery(&cq.Atom{Pred: "ans", Args: args}, body)
}

// KernelCases returns n randomized cases mixing the generator's shapes —
// cycles, paths, stars, grids, binary cliques, random CSPs and unstructured
// random queries — with small random databases sized so joins produce
// non-trivial (but quickly checkable) answers. Roughly half the cases carry
// random heads. Deterministic in seed.
func KernelCases(seed int64, n int) []KernelCase {
	rng := rand.New(rand.NewSource(seed))
	out := make([]KernelCase, 0, n)
	for i := 0; i < n; i++ {
		var q *cq.Query
		var shape string
		switch i % 7 {
		case 0:
			q, shape = Cycle(3+rng.Intn(4)), "cycle"
		case 1:
			q, shape = Path(2+rng.Intn(4)), "path"
		case 2:
			q, shape = Star(2+rng.Intn(4)), "star"
		case 3:
			q, shape = Grid(2, 2+rng.Intn(2)), "grid"
		case 4:
			q, shape = CliqueBinary(3+rng.Intn(2)), "clique"
		case 5:
			q, shape = RandomCSP(rng, 4+rng.Intn(3), 6+rng.Intn(4), 3), "csp"
		default:
			q, shape = RandomQuery(rng, 3+rng.Intn(3), 4+rng.Intn(4), 3), "random"
		}
		headed := false
		if i%2 == 0 {
			q = WithRandomHead(rng, q)
			headed = true
		}
		db := RandomDatabase(rng, q, 4+rng.Intn(30), 2+rng.Intn(5))
		h, _ := q.Hypergraph()
		out = append(out, KernelCase{
			Name:   fmt.Sprintf("%02d-%s-h%v", i, shape, headed),
			Q:      q,
			DB:     db,
			Cyclic: !jointree.IsAcyclic(h),
		})
	}
	return out
}
