package hypertree

import (
	"context"
	"errors"

	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/ghd"
	"hypertree/internal/querydecomp"
)

// Typed errors of the compilation pipeline. The internal search packages
// return these same sentinels, so errors.Is works across the whole API.
var (
	// ErrInvalidWidth reports a width bound k < 1.
	ErrInvalidWidth = decomp.ErrInvalidWidth
	// ErrWidthExceeded reports that the search completed and proved that no
	// decomposition exists within the requested width bound.
	ErrWidthExceeded = decomp.ErrWidthExceeded
	// ErrStepBudget reports that a step budget cut the search off before it
	// could find a decomposition or prove that none exists.
	ErrStepBudget = decomp.ErrStepBudget
	// ErrCyclic reports that StrategyAcyclic was requested for a query that
	// has no join tree.
	ErrCyclic = errors.New("hypertree: query is cyclic (no join tree)")
)

// DecomposeRequest carries the tuning knobs Compile hands to a Decomposer.
type DecomposeRequest struct {
	// MaxWidth bounds the width of the decomposition; 0 means "minimise":
	// search k = 1, 2, ... until a decomposition is found.
	MaxWidth int
	// StepBudget bounds the number of search steps, one decomp.Budget
	// across a minimising width search and across k-decomp's workers; 0
	// means unlimited. What a step is depends on the engine: a λ guess of
	// k-decomp at any worker, root guesses included; an (S, deferral) trial
	// of the query-decomposition search; a vertex elimination or simplex
	// pivot of the greedy and fractional walk. An exhausted budget yields
	// ErrStepBudget.
	StepBudget int
	// Workers is the requested parallelism for decomposers that support it
	// (≤ 1 means sequential): KDecomposer, also as the exact entrant of the
	// auto race. The heuristic engines ignore it.
	Workers int
	// Cost, when non-nil, is the cost model of this compilation: per
	// hypergraph edge the cardinality of the relation behind it and the
	// distinct counts of its variables. Compile derives it from the
	// statistics given via WithStats/WithCostModel; the built-in heuristic
	// engines use it to break width ties toward decompositions of lower
	// estimated cost, and custom Decomposers are free to ignore it —
	// statistics influence plan choice, never plan validity.
	Cost *CostModel
}

// Decomposer is a pluggable decomposition strategy: given a query hypergraph
// it returns a hypertree decomposition satisfying the request, or a typed
// error — ErrWidthExceeded when it proves none exists within req.MaxWidth,
// ErrStepBudget when req.StepBudget ran out, or ctx.Err() on cancellation.
// Implementations must be safe for concurrent use; Compile validates every
// returned decomposition against Definition 4.1 (or, for decomposers that
// declare themselves GeneralizedDecomposers, against the GHD conditions 1–3
// only).
//
// Four built-in strategies ship with the package: KDecomposer (at any
// worker count) and QueryDecomposer cover the paper's exact algorithms,
// GreedyDecomposer is the heuristic GHD engine, and
// FractionalDecomposer re-covers its shapes by LP into fractional
// hypertree decompositions. Further methods plug in through WithDecomposer
// without another API change.
type Decomposer interface {
	// Name identifies the strategy; it participates in plan-cache keys, so
	// two Decomposers with the same name must be interchangeable.
	Name() string
	Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error)
}

// FractionalWidthDecomposer marks a Decomposer whose decompositions carry
// fractional λ weights (decomp.Node.Weights): Compile validates such output
// with ValidateFHD — the GHD cover conditions on the integral support sets
// plus the fractional cover condition on the weights — and the resulting
// Plan reports a FractionalWidth that can drop strictly below Width. Every
// fractional decomposition is in particular a GHD over its support sets, so
// evaluation is unchanged. FractionalDecomposer is the built-in
// implementation.
type FractionalWidthDecomposer interface {
	Decomposer
	// Fractional reports whether the produced decompositions attach
	// fractional λ weights (and must be validated fractionally).
	Fractional() bool
}

// GeneralizedDecomposer marks a Decomposer whose output is a generalized
// hypertree decomposition: it guarantees conditions 1–3 of Definition 4.1
// but not the descendant condition (4). Compile validates such output with
// ValidateGHD instead of the full ValidateHD — the Lemma 4.6 evaluation
// needs only the cover conditions, so GHD plans execute through the same
// machinery and return the same answers. Implement this interface (with
// Generalized returning true) on any custom heuristic decomposer.
type GeneralizedDecomposer interface {
	Decomposer
	// Generalized reports whether the produced decompositions may violate
	// condition 4 (and must therefore be validated as GHDs).
	Generalized() bool
}

// KDecomposer returns the k-decomp Decomposer (the alternating algorithm
// of Section 5 in deterministic, memoised form). It honours MaxWidth,
// StepBudget and Workers: at most one worker runs the search on the
// calling goroutine, more fan the root-level guesses out over that many
// goroutines — the operational reading of the paper's LOGCFL
// parallelizability statement — with StepBudget a cross-worker total that
// charges every λ guess, the root guesses the workers share out included.
func KDecomposer() Decomposer { return kDecomposer{} }

// kDecomposer is KDecomposer; the auto race sets maxK to stop the
// minimising search after that level (0 = uncapped).
type kDecomposer struct{ maxK int }

func (kDecomposer) Name() string { return "k-decomp" }

func (kd kDecomposer) Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error) {
	b := decomp.NewBudget(ctx, req.StepBudget)
	if req.MaxWidth != 0 {
		return decomp.Search(b, h, req.MaxWidth, req.Workers)
	}
	_, d, err := decomp.MinWidth(h, 1, kd.maxK, func(k int) (*Decomposition, error) {
		return decomp.Search(b, h, k, req.Workers)
	})
	return d, err
}

// QueryDecomposer returns the pure query-decomposition Decomposer
// (Definition 3.1, the notion of Chekuri & Rajaraman). Deciding qw ≤ 4 is
// NP-complete (Theorem 3.4), so this is an exponential exact search meant
// for small queries; StepBudget is the safety valve. Every pure query
// decomposition is also a valid hypertree decomposition (χ = var(λ)), so
// the resulting plans evaluate through the same Lemma 4.6 machinery.
func QueryDecomposer() Decomposer { return queryDecomposer{} }

type queryDecomposer struct{}

func (queryDecomposer) Name() string { return "query-decomp" }

func (queryDecomposer) Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error) {
	if req.MaxWidth == 0 {
		_, d, err := querydecomp.WidthContext(ctx, h, 1, req.StepBudget)
		return d, err
	}
	return querydecomp.SearchContext(ctx, h, req.MaxWidth, req.StepBudget)
}

// GreedyDecomposer returns the heuristic GHD Decomposer: greedy vertex
// orderings over the primal graph produce tree decompositions, a greedy
// edge-cover pass turns each bag into a λ label, and an improvement loop
// keeps the smallest width across the portfolio (see internal/ghd). The
// output is a generalized hypertree decomposition — conditions 1–3 of
// Definition 4.1 without the descendant condition — which evaluates through
// the identical Lemma 4.6 machinery.
//
// Unlike the exact searches this runs in polynomial time, so it compiles
// hypergraphs (e.g. random CSPs with 50+ atoms) that KDecomposer cannot
// touch; the price is that the width is only an upper bound on ghw, and
// ErrWidthExceeded under WithMaxWidth means "the heuristic found nothing
// within the bound", not a proof that nothing exists. It honours MaxWidth
// and StepBudget (one step = one vertex elimination decision; when the
// budget dies mid-loop the best decomposition already found is returned)
// and ignores Workers.
func GreedyDecomposer() Decomposer { return greedyDecomposer{} }

type greedyDecomposer struct{}

func (greedyDecomposer) Name() string { return "ghd" }

// Generalized marks the output as GHD-only: Compile validates conditions
// 1–3 and skips the descendant condition.
func (greedyDecomposer) Generalized() bool { return true }

func (greedyDecomposer) Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error) {
	return ghd.Decompose(ctx, h, req.Cost, req.MaxWidth, req.StepBudget)
}

// FractionalDecomposer returns the fractional hypertree Decomposer: the
// same greedy tree shapes as GreedyDecomposer, but every bag is
// re-covered by its minimum *fractional* edge cover, priced by one small
// LP per bag (internal/lp), and the shape of minimum fractional width
// wins. The fractional width fhw satisfies fhw ≤ ghw ≤ hw (Fischl, Gottlob
// & Pichler) with the gap realised already on small cliques — fhw(K5) =
// 5/2 against ghw = 3 — so Plan.FractionalWidth can report a strictly
// tighter evaluation-cost exponent than any integral decomposer: by the
// AGM bound each node table holds at most r^fhw tuples.
//
// The λ label of every node is the integral support of its optimal
// fractional cover — still an edge cover of the bag — so the output is
// simultaneously a valid GHD and executes through the unchanged Lemma 4.6
// machinery. WithMaxWidth(k) bounds the accepted fractional width (the
// heuristic proves nothing about fhw(H) on failure); WithStepBudget counts
// vertex eliminations plus simplex pivots; Workers is ignored (the
// re-covering pass is polynomial and fast).
func FractionalDecomposer() Decomposer { return fractionalDecomposer{} }

type fractionalDecomposer struct{}

func (fractionalDecomposer) Name() string { return "fhd" }

// Generalized marks the integral support sets as GHD-only (conditions 1–3).
func (fractionalDecomposer) Generalized() bool { return true }

// Fractional marks the output as weight-carrying: Compile validates it with
// ValidateFHD and the Plan reports its fractional width.
func (fractionalDecomposer) Fractional() bool { return true }

func (fractionalDecomposer) Decompose(ctx context.Context, h *Hypergraph, req DecomposeRequest) (*Decomposition, error) {
	return fhd.Decompose(ctx, h, req.Cost, req.MaxWidth, req.StepBudget)
}
