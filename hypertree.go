// Package hypertree is a library reproduction of
//
//	G. Gottlob, N. Leone, F. Scarcello:
//	"Hypertree Decompositions and Tractable Queries"
//	(PODS 1999; JCSS 64(3):579–627, 2002)
//
// It provides conjunctive queries and their hypergraphs, acyclicity and join
// trees, hypertree decompositions (detection, construction, validation,
// normal form, a search on one or many goroutines), query decompositions
// (exact exponential search — the problem is NP-complete, Theorem 3.4), the
// Section 7 reduction machinery, the Appendix B Datalog decision procedure,
// and query evaluation through decompositions (Lemma 4.6 + Yannakakis).
//
// # Compile once, execute many
//
// The central API is the Plan: Compile performs parsing/analysis and the
// decomposition search once, Execute runs the resulting skeleton against any
// database — the amortisation of Theorem 4.7. Plans are immutable and safe
// for concurrent use:
//
//	q, _ := hypertree.ParseQuery(`enrolled(S,C,R), teaches(P,C,A), parent(P,S)`)
//	plan, _ := hypertree.Compile(q)              // decomposition search runs here, once
//	fmt.Println(plan.Width())                    // 2
//	fmt.Print(hypertree.AtomRepresentation(q, plan.Decomposition()))
//
//	db := hypertree.NewDatabase()
//	db.ParseFacts(`enrolled(ann,cs1,jan). teaches(bob,cs1,y). parent(bob,ann).`)
//	ans, _ := plan.ExecuteBoolean(context.Background(), db) // true
//
// Compilation is tuned through functional options — WithStrategy,
// WithMaxWidth, WithWorkers, WithStepBudget — and the decomposition method
// itself is pluggable through WithDecomposer: KDecomposer (Section 5; with
// WithWorkers(n > 1) its root guesses fan out over n goroutines, the
// LOGCFL-inspired parallel search) and QueryDecomposer (Definition 3.1)
// are the exact searches;
// GreedyDecomposer is the polynomial-time heuristic that produces
// generalized hypertree decompositions — it compiles hypergraphs far
// beyond the exact searches' reach at the price of width optimality — and
// FractionalDecomposer re-prices the same tree shapes with LP-optimal
// fractional edge covers (fhw ≤ ghw ≤ hw, Fischl–Gottlob–Pichler),
// reported through Plan.FractionalWidth while evaluation runs over the
// integral cover supports. WithAutoStrategy races the exact, fractional
// and greedy engines and keeps the lowest-width winner. Long searches are
// cancellable: CompileContext and Execute observe their context's
// cancellation and deadline. A PlanCache (NewPlanCache) keyed by the
// canonical query form and the compile options (including the decomposer
// name) makes repeated compilation of α-equivalent queries free.
package hypertree

import (
	"context"
	"fmt"

	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/hypergraph"
	"hypertree/internal/jointree"
	"hypertree/internal/querydecomp"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// Core re-exported types. A Decomposition carries the hypergraph it
// decomposes; build queries with ParseQuery and databases with NewDatabase.
type (
	// Query is a conjunctive query in rule form.
	Query = cq.Query
	// Atom is a body or head atom of a query.
	Atom = cq.Atom
	// Term is a variable or constant argument.
	Term = cq.Term
	// Hypergraph is the query hypergraph H(Q) (or any hypergraph).
	Hypergraph = hypergraph.Hypergraph
	// Decomposition is a hypertree ⟨T, χ, λ⟩ (Definition 4.1); it is also
	// used for pure query decompositions (χ = var(λ)).
	Decomposition = decomp.Decomposition
	// DecompositionNode is a node of a Decomposition.
	DecompositionNode = decomp.Node
	// CostModel is the statistics of one compilation as the decomposers see
	// them (DecomposeRequest.Cost): per hypergraph edge the cardinality of
	// its relation and the distinct counts of its variables.
	CostModel = decomp.CostModel
	// JoinTree is a join tree over the atoms of an acyclic query.
	JoinTree = jointree.Tree
	// Database is a set of relations over interned constants.
	Database = relation.Database
	// Table is a relation over query variables (query answers).
	Table = relation.Table
	// Value is one interned constant of a Database (Database.ValueName
	// renders it).
	Value = relation.Value
	// Answers is one execution's answers as a cursor (Plan.Answers).
	Answers = yannakakis.Answers
)

// ParseQuery parses a conjunctive query in rule syntax, e.g.
// "ans(X) :- r(X,Y), s(Y,Z)." (the head is optional).
func ParseQuery(src string) (*Query, error) { return cq.Parse(src) }

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(src string) *Query { return cq.MustParse(src) }

// NewDatabase returns an empty database; load it with AddFact or ParseFacts.
func NewDatabase() *Database { return relation.NewDatabase() }

// QueryHypergraph returns H(Q): one vertex per variable, one edge per body
// atom with at least one variable (Section 2.1).
func QueryHypergraph(q *Query) *Hypergraph {
	h, _ := q.Hypergraph()
	return h
}

// CanonicalQuery returns the canonical query cq(H) of a hypergraph
// (Appendix A, Definition A.2).
func CanonicalQuery(h *Hypergraph) *Query { return cq.CanonicalQuery(h) }

// CanonicalForm returns the canonical key of a query used by PlanCache:
// invariant under variable renaming. Atom order is significant — answer
// tables carry the compiled query's variable IDs, which depend on it.
func CanonicalForm(q *Query) string { return cq.CanonicalForm(q) }

// IsAcyclic reports whether the query is acyclic (has a join tree).
func IsAcyclic(q *Query) bool { return jointree.IsAcyclic(QueryHypergraph(q)) }

// QueryJoinTree returns a join tree of an acyclic query via the GYO
// reduction, or false for cyclic queries.
func QueryJoinTree(q *Query) (*JoinTree, bool) { return jointree.GYO(QueryHypergraph(q)) }

// HypergraphWidth computes hw(H) and an optimal normal-form decomposition
// using the k-decomp algorithm of Section 5. For a query pass
// QueryHypergraph(q): hw(Q) is hw(H(Q)), and hw(H) = hw(cq(H)) (Appendix A,
// Theorem A.7).
func HypergraphWidth(h *Hypergraph) (int, *Decomposition) { return decomp.Width(h) }

// DecideWidth reports whether hw(Q) ≤ k, in polynomial time for fixed k
// (Theorem 5.16). It returns ErrInvalidWidth for k < 1.
func DecideWidth(q *Query, k int) (bool, error) {
	return decomp.DecideContext(context.Background(), QueryHypergraph(q), k)
}

// Decompose returns a width-≤k normal-form hypertree decomposition of Q. It
// returns ErrWidthExceeded if hw(Q) > k and ErrInvalidWidth for k < 1.
func Decompose(q *Query, k int) (*Decomposition, error) {
	return decomp.DecomposeContext(context.Background(), QueryHypergraph(q), k, 0)
}

// ValidateHD checks the four conditions of Definition 4.1.
func ValidateHD(d *Decomposition) error { return d.Validate() }

// ValidateGHD checks conditions 1–3 of Definition 4.1 only — the definition
// of a generalized hypertree decomposition, the output of GreedyDecomposer.
// Every HD is a GHD; the converse fails exactly on the descendant condition.
func ValidateGHD(d *Decomposition) error { return d.ValidateGHD() }

// ValidateFHD checks the fractional reading of Definition 4.1 — the GHD
// cover conditions on the integral support sets plus, at every weighted
// node, that the fractional λ weights cover each χ vertex with total
// weight ≥ 1 and have support exactly λ. This is the validation mode
// Compile applies to FractionalDecomposer output; every decomposition that
// passes it is in particular a valid GHD.
func ValidateFHD(d *Decomposition) error { return d.ValidateFractional() }

// FractionalWidthOf computes the fractional hypertree width of a
// decomposition's tree shape: the maximum over nodes of the minimum
// fractional edge cover of χ(p), priced by one LP per bag (internal/lp).
// It ignores the existing λ labels, so on any decomposition it reports the
// best fractional width that tree can achieve — a lower bound on (and for
// fractional plans equal to) the achieved Plan.FractionalWidth. A
// cancelled context aborts the LPs with ctx.Err().
func FractionalWidthOf(ctx context.Context, d *Decomposition) (float64, error) {
	return fhd.WidthOf(ctx, d)
}

// ValidateQD checks the pure query-decomposition conditions of
// Definition 3.1.
func ValidateQD(d *Decomposition) error { return querydecomp.Validate(d) }

// Normalize rewrites a valid decomposition into normal form (Definition
// 5.1) without increasing the width (Theorem 5.4).
func Normalize(d *Decomposition) *Decomposition { return decomp.Normalize(d) }

// QueryWidthResult reports the outcome of the exponential query-width
// search.
type QueryWidthResult struct {
	Found         bool
	Exhausted     bool // false when the step budget cut the search off
	Decomposition *Decomposition
	Steps         int
	Err           error // ErrInvalidWidth for k < 1; the search did not run
}

// SearchQueryDecomposition looks for a pure query decomposition of width
// ≤ k (Definition 3.1). Deciding this is NP-complete for k = 4
// (Theorem 3.4): the search is exponential, with maxSteps (0 = unlimited)
// as a safety budget. A width bound k < 1 reports ErrInvalidWidth in Err.
func SearchQueryDecomposition(q *Query, k, maxSteps int) QueryWidthResult {
	s, err := querydecomp.NewSearcher(context.Background(), QueryHypergraph(q), k)
	if err != nil {
		return QueryWidthResult{Err: err}
	}
	s.MaxSteps = maxSteps
	d, ok := s.Search()
	return QueryWidthResult{Found: ok, Exhausted: s.Exhausted, Decomposition: d, Steps: s.Steps}
}

// QueryWidth computes qw(Q) exactly by the exponential search, starting
// from the hypertree width lower bound (Theorem 6.1a). Use only on small
// queries.
func QueryWidth(q *Query) (int, *Decomposition, error) {
	h := QueryHypergraph(q)
	hw, _ := decomp.Width(h)
	w, d := querydecomp.Width(h, hw)
	if err := querydecomp.Validate(d); err != nil {
		return 0, nil, fmt.Errorf("hypertree: internal error: %w", err)
	}
	return w, d, nil
}

// Strategy selects how a query is evaluated.
type Strategy int

const (
	// StrategyAuto uses Yannakakis on acyclic queries and a hypertree
	// decomposition otherwise.
	StrategyAuto Strategy = iota
	// StrategyNaive joins all atoms with no decomposition (baseline).
	StrategyNaive
	// StrategyAcyclic runs Yannakakis on a join tree (acyclic queries
	// only): the tree is evaluated as the width-1 hypertree decomposition
	// it is (Theorem 4.5), with no decomposition search.
	StrategyAcyclic
	// StrategyHypertree evaluates through an optimal hypertree
	// decomposition (Lemma 4.6).
	StrategyHypertree
)
