package hypertree

import (
	"context"
	"fmt"
	"strings"

	"hypertree/internal/decomp"
	"hypertree/internal/hdeval"
	"hypertree/internal/jointree"
	"hypertree/internal/obs"
	"hypertree/internal/stats"
	"hypertree/internal/yannakakis"
)

// A Plan is a compiled conjunctive query: parsing/analysis done, a
// decomposition (or join tree) chosen, and the evaluation skeleton
// precomputed. This is the compile-once/execute-many reading of
// Theorem 4.7 — the exponential-in-k decomposition search is paid once per
// query and amortised across databases.
//
// A Plan is immutable and safe for concurrent use by multiple goroutines:
// Answers, Execute and ExecuteBoolean may be called simultaneously against
// different (or the same) databases. It keeps no execution state — an
// execution's trace is the caller's, carried by its context.
type Plan struct {
	query       *Query
	strategy    Strategy // resolved: never StrategyAuto
	dec         *Decomposition
	eval        *hdeval.Evaluator // evaluation skeleton (nil for the naive strategy)
	jt          *JoinTree         // acyclic-strategy join tree (nil if ground-only)
	head        []int             // the answer columns Answers lists
	workers     int
	decomposer  string
	generalized bool // decomposition validated as a GHD (conditions 1–3 only)
	fractional  bool // decomposition carries fractional λ weights (validated by ValidateFHD)

	// cost-based planning state (nil without WithStats/WithCostModel)
	stats *stats.Stats
	cost  *CostModel // stats read against the query's hypergraph
}

// compileConfig is assembled by the functional options.
type compileConfig struct {
	strategy   Strategy
	maxWidth   int
	stepBudget int
	workers    int
	decomposer Decomposer
	race       bool         // WithAutoStrategy: race the engines instead of fixing one
	stats      *stats.Stats // WithCostModel snapshot (wins over statsDB)
	statsDB    *Database    // WithStats: collect sampled statistics at compile time
	err        error        // first invalid option
}

// CompileOption is a functional option for Compile.
type CompileOption func(*compileConfig)

// WithStrategy selects the evaluation strategy (default StrategyAuto:
// Yannakakis on acyclic queries, a hypertree decomposition otherwise).
func WithStrategy(s Strategy) CompileOption {
	return func(c *compileConfig) { c.strategy = s }
}

// WithMaxWidth sets a width budget k ≥ 1: Compile fails with
// ErrWidthExceeded instead of producing a plan of width > k. Without it the
// decomposition search minimises the width.
func WithMaxWidth(k int) CompileOption {
	return func(c *compileConfig) {
		if k < 1 {
			if c.err == nil {
				c.err = fmt.Errorf("WithMaxWidth(%d): %w", k, ErrInvalidWidth)
			}
			return
		}
		c.maxWidth = k
	}
}

// WithWorkers sets the parallelism used by the decomposition search (when
// the decomposer supports it: KDecomposer, also as the auto race's exact
// entrant) and by the evaluation-time materialisation of independent node
// tables; n ≤ 1 is sequential. The decomposer stays k-decomp: a plan
// compiled with n > 1 reports DecomposerName "k-decomp" ("auto(k-decomp)"
// when the race picks it).
func WithWorkers(n int) CompileOption {
	return func(c *compileConfig) { c.workers = n }
}

// WithDecomposer plugs in a decomposition strategy (see Decomposer). The
// default is KDecomposer, run on WithWorkers' goroutines.
func WithDecomposer(d Decomposer) CompileOption {
	return func(c *compileConfig) { c.decomposer = d }
}

// WithAutoStrategy enables adaptive decomposer selection: when the plan
// needs a decomposition, Compile runs one walk of the greedy shape
// portfolio, which yields the fractional (LP-cover) and the greedy GHD
// candidates, then the exact k-decomp engine, and keeps the result of
// lowest achieved fractional width — the evaluation-cost exponent — with
// ties broken by guarantee strength (exact HD, then fhd, then ghd); so
// k-decomp only certifies below the walk's width, stopping after level
// ⌊fw(walk)⌋. With statistics (WithStats/WithCostModel) the race ranks
// entrants by estimated total evaluation cost — the summed join-size
// estimates of the node tables, from the actual relation cardinalities and
// distinct counts — and the exact search runs uncapped, as under
// WithMaxWidth.
// The exact entrant runs under WithStepBudget's budget, or
// DefaultRaceExactBudget when none is set, so the race always terminates;
// the heuristic walk runs under WithStepBudget's budget, one budget for
// both of its candidates. Candidates that fail just drop out. The winner is recorded in
// Plan.DecomposerName as "auto(<engine>)", and auto-compiled plans are
// cached under the strategy name "auto" — they never collide with plans
// compiled through an explicit decomposer. Incompatible with
// WithDecomposer. On acyclic queries under StrategyAuto the Yannakakis
// path still wins and no race runs.
func WithAutoStrategy() CompileOption {
	return func(c *compileConfig) { c.race = true }
}

// WithStepBudget bounds the number of search steps the decomposition
// search may spend; n ≥ 1. A step is a λ guess of k-decomp at any worker
// (root guesses included), an (S, deferral) trial of QueryDecomposer, or
// a vertex elimination or simplex pivot of the greedy and fractional walk;
// a minimising width search spends one budget over all its levels. An
// exhausted budget surfaces as ErrStepBudget from Compile — the NP-hard
// searches (QueryDecomposer, large k) stay abortable even without a
// deadline.
func WithStepBudget(n int) CompileOption {
	return func(c *compileConfig) {
		if n < 1 {
			if c.err == nil {
				c.err = fmt.Errorf("WithStepBudget(%d): budget must be ≥ 1", n)
			}
			return
		}
		c.stepBudget = n
	}
}

func newCompileConfig(opts []CompileOption) (*compileConfig, error) {
	cfg := &compileConfig{strategy: StrategyAuto}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.race && cfg.decomposer != nil {
		return nil, fmt.Errorf("hypertree: WithAutoStrategy races the built-in engines and cannot be combined with WithDecomposer")
	}
	if cfg.stats == nil && cfg.statsDB != nil {
		// WithStats: collect here rather than in compile, so a PlanCache can
		// fingerprint the snapshot into its key before deciding hit or miss.
		cfg.stats = stats.CollectSampled(cfg.statsDB, 0)
	}
	return cfg, nil
}

// chosenDecomposer resolves the effective decomposition strategy.
func (c *compileConfig) chosenDecomposer() Decomposer {
	if c.decomposer != nil {
		return c.decomposer
	}
	return KDecomposer()
}

// Compile analyses q, picks or searches a decomposition once, and
// precomputes the evaluation skeleton. The returned Plan can be executed
// against any number of databases, concurrently (Theorem 4.7). Use
// CompileContext to bound or cancel the decomposition search.
//
// A Plan is tied to its query only up to α-renaming: the compiled tables
// and answer columns carry positional variable IDs, so any variable
// renaming of q describes the same Plan (PlanCache exploits this — its key
// is the rename-invariant canonical form), whereas a body-atom reordering
// is a different query for caching purposes even though its answers are
// set-equal. See PlanCache for the pinned invariant.
func Compile(q *Query, opts ...CompileOption) (*Plan, error) {
	return CompileContext(context.Background(), q, opts...)
}

// CompileContext is Compile under a context: a cancelled or expired context
// aborts the decomposition search promptly with ctx.Err().
func CompileContext(ctx context.Context, q *Query, opts ...CompileOption) (*Plan, error) {
	cfg, err := newCompileConfig(opts)
	if err != nil {
		return nil, err
	}
	return compile(ctx, q, cfg)
}

// compile records the whole compilation as one SpanCompile of the
// context's trace, and delegates to compilePlan.
func compile(ctx context.Context, q *Query, cfg *compileConfig) (*Plan, error) {
	if q == nil {
		return nil, fmt.Errorf("hypertree: Compile on a nil query")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).StartSpan(obs.SpanCompile)
	p, err := compilePlan(ctx, q, cfg)
	if err != nil {
		sp.SetLabel("error: " + err.Error())
		sp.End()
		return nil, err
	}
	sp.SetLabel(p.String())
	sp.End()
	return p, nil
}

func compilePlan(ctx context.Context, q *Query, cfg *compileConfig) (*Plan, error) {
	head, err := hdeval.HeadVars(q)
	if err != nil {
		return nil, err
	}

	// One GYO run both resolves StrategyAuto and yields the join tree the
	// acyclic strategy executes.
	strategy := cfg.strategy
	var jtH *Hypergraph
	var jt *JoinTree
	if strategy == StrategyAuto || strategy == StrategyAcyclic {
		jtH = QueryHypergraph(q)
		var ok bool
		switch jt, ok = jointree.GYO(jtH); {
		case ok:
			strategy = StrategyAcyclic
		case strategy == StrategyAuto:
			strategy = StrategyHypertree
		default:
			return nil, ErrCyclic
		}
	}

	p := &Plan{
		query:    q,
		strategy: strategy,
		head:     head,
		workers:  cfg.workers,
		stats:    cfg.stats,
	}
	switch strategy {
	case StrategyNaive:
		return p, nil
	case StrategyAcyclic:
		// By Theorem 4.5 the join tree is a width-1 hypertree decomposition:
		// no search runs, and the plan executes through the same evaluator
		// as every other decomposition, each node a scan of its relation.
		p.jt = jt // nil when the query has only ground atoms
		var parent []int
		if jt != nil {
			parent = jt.Parent
		}
		p.eval, err = hdeval.NewEvaluator(q, decomp.FromJoinTree(jtH, parent), nil)
		if err != nil {
			return nil, err
		}
		return p, nil
	case StrategyHypertree:
		h, edgeToAtom := q.Hypergraph()
		var dec *Decomposition
		req := DecomposeRequest{
			MaxWidth:   cfg.maxWidth,
			StepBudget: cfg.stepBudget,
			Workers:    cfg.workers,
		}
		if cfg.stats != nil {
			p.cost = costModelFor(q, h, edgeToAtom, cfg.stats)
			req.Cost = p.cost
		}
		switch {
		case h.NumEdges() == 0:
			dec = &decomp.Decomposition{H: h}
		case cfg.race:
			win, err := raceDecomposers(ctx, h, req)
			if err != nil {
				return nil, err
			}
			p.decomposer = "auto(" + win.name + ")"
			p.generalized = win.generalized
			p.fractional = win.fractional
			dec = win.d
		default:
			d := cfg.chosenDecomposer()
			p.decomposer = d.Name()
			if f, ok := d.(FractionalWidthDecomposer); ok && f.Fractional() {
				p.fractional, p.generalized = true, true
			} else if g, ok := d.(GeneralizedDecomposer); ok && g.Generalized() {
				p.generalized = true
			}
			dsp := obs.FromContext(ctx).StartSpan(obs.SpanDecompose)
			dec, err = d.Decompose(ctx, h, req)
			if err != nil {
				dsp.SetLabel(fmt.Sprintf("%s error: %v", p.decomposer, err))
				dsp.End()
				return nil, err
			}
			if dec == nil {
				return nil, fmt.Errorf("hypertree: decomposer %q returned no decomposition and no error", p.decomposer)
			}
			dsp.SetLabel(fmt.Sprintf("%s width=%d fhw=%.4g", p.decomposer, dec.Width(), dec.FractionalWidth()))
			dsp.End()
		}
		if h.NumEdges() > 0 {
			// HD mode checks all four conditions of Definition 4.1; GHD mode
			// checks the cover conditions 1–3 only — evaluation (Lemma 4.6)
			// never needs the descendant condition, so relaxing it here is
			// safe and is what lets heuristic decomposers through. The
			// fractional mode adds the weight checks of ValidateFHD on top
			// of the GHD conditions.
			switch {
			case p.fractional:
				err = dec.ValidateFractional()
			case p.generalized:
				err = dec.ValidateGHD()
			default:
				err = dec.Validate()
			}
			if err != nil {
				return nil, fmt.Errorf("hypertree: decomposer %q produced an invalid decomposition: %w", p.decomposer, err)
			}
		}
		p.dec = dec
		p.eval, err = hdeval.NewEvaluator(q, dec, p.cost)
		if err != nil {
			return nil, err
		}
		return p, nil
	default:
		return nil, fmt.Errorf("hypertree: unknown strategy %d", strategy)
	}
}

// Query returns the compiled query.
func (p *Plan) Query() *Query { return p.query }

// Strategy returns the resolved evaluation strategy (never StrategyAuto).
func (p *Plan) Strategy() Strategy { return p.strategy }

// Decomposition returns the hypertree decomposition the plan's search
// produced, or nil for the naive and acyclic strategies (an acyclic plan
// evaluates through its JoinTree, read as a width-1 decomposition).
func (p *Plan) Decomposition() *Decomposition { return p.dec }

// JoinTree returns the join tree of an acyclic-strategy plan, nil otherwise
// (or when the query has only ground atoms).
func (p *Plan) JoinTree() *JoinTree { return p.jt }

// Width returns the width of the plan's decomposition; 1 for the acyclic
// strategy (Theorem 4.5: acyclic ⟺ hw = 1) and 0 for the naive strategy,
// which uses no decomposition.
func (p *Plan) Width() int {
	switch {
	case p.dec != nil:
		return p.dec.Width()
	case p.strategy == StrategyAcyclic:
		return 1
	default:
		return 0
	}
}

// FractionalWidth returns the width of the plan's decomposition under its
// fractional λ weights: max over nodes of the total edge weight, where
// nodes without weights count each λ edge at 1. For integral plans this
// equals float64(Width()); for plans compiled through FractionalDecomposer
// (or an auto race the fractional engine won) it is the achieved
// fractional hypertree width, which can be strictly smaller — by the AGM
// bound it is the tighter exponent on the O(r^w) node-table size of
// Lemma 4.6. Mirroring Width, it is 1 for the acyclic strategy and 0 for
// the naive strategy.
func (p *Plan) FractionalWidth() float64 {
	switch {
	case p.dec != nil:
		return p.dec.FractionalWidth()
	case p.strategy == StrategyAcyclic:
		return 1
	default:
		return 0
	}
}

// DecomposerName returns the Name of the Decomposer that produced the
// plan's decomposition ("" when no search ran). Plans compiled under
// WithAutoStrategy report the race winner as "auto(<engine>)".
func (p *Plan) DecomposerName() string { return p.decomposer }

// Generalized reports whether the plan's decomposition is a generalized
// hypertree decomposition (validated against conditions 1–3 of Definition
// 4.1 only). Width then upper-bounds the generalized hypertree width rather
// than equalling the exact hypertree width.
func (p *Plan) Generalized() bool { return p.generalized }

// Fractional reports whether the plan's decomposition carries fractional λ
// weights (validated by ValidateFHD); FractionalWidth can then be strictly
// below Width. Every fractional plan is also Generalized — evaluation runs
// over the integral support sets.
func (p *Plan) Fractional() bool { return p.fractional }

// String summarises the plan.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan{%s", strategyName(p.strategy))
	if p.dec != nil {
		fmt.Fprintf(&b, ", width=%d", p.dec.Width())
		if p.fractional {
			fmt.Fprintf(&b, ", fhw=%.4g (fhd)", p.dec.FractionalWidth())
		} else if p.generalized {
			b.WriteString(" (ghd)")
		}
	}
	if p.decomposer != "" {
		fmt.Fprintf(&b, ", decomposer=%s", p.decomposer)
	}
	b.WriteString("}")
	return b.String()
}

func strategyName(s Strategy) string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyNaive:
		return "naive"
	case StrategyAcyclic:
		return "acyclic"
	case StrategyHypertree:
		return "hypertree"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Answers runs the plan against db and returns its answers as a cursor:
// Count is known on return, Next walks one answer at a time, and
// Materialize drains the rest into the table Execute returns, in the same
// row order. Theorem 4.8's enumeration needs no materialised answer table,
// so a caller that renders k rows pays one top-down count over the node
// tables plus O(k · depth); a head that drops a variable of the root's table folds
// the root run by run of its leading head columns, each run deduplicated on
// its own. A Boolean query's cursor holds the 0-ary true table or nothing.
// A cancelled or expired context aborts with ctx.Err(), here or in Next
// (see Answers.Err). Under a ContextWithTrace trace the execution span
// stays open until the cursor closes. Safe for concurrent use; each cursor
// is for one goroutine.
func (p *Plan) Answers(ctx context.Context, db *Database) (*Answers, error) {
	return p.run(ctx, db, p.head)
}

// Execute runs the plan against db and returns the answer table over the
// head variables (for a Boolean query: the 0-ary true table, or an empty
// table when the query is false): Answers, materialised. A cancelled or
// expired context aborts the evaluation with ctx.Err(). Safe for concurrent
// use; traced like Answers.
func (p *Plan) Execute(ctx context.Context, db *Database) (*Table, error) {
	a, err := p.Answers(ctx, db)
	if err != nil {
		return nil, err
	}
	return a.Materialize()
}

// ExecuteBoolean decides satisfiability of the plan's query on db (for
// non-Boolean queries: whether the answer is non-empty). It is Answers with
// an empty head: the count descends the node tables top-down as tries and
// stops at the first root row that extends to an answer — O(depth) lookups
// when that is the first, never more than the O(Σ rows) of a bottom-up
// semijoin pass. Traced like Answers, with execution Rows 1 or 0.
func (p *Plan) ExecuteBoolean(ctx context.Context, db *Database) (bool, error) {
	a, err := p.run(ctx, db, nil)
	if err != nil {
		return false, err
	}
	a.Close()
	return a.Count() > 0, nil
}

// run is every execution: the node tables (or, under the naive strategy,
// the join) and the answer cursor over head, under a SpanExec of the
// context's trace that closes with the cursor.
func (p *Plan) run(ctx context.Context, db *Database, head []int) (*Answers, error) {
	if db == nil {
		return nil, fmt.Errorf("hypertree: Execute on a nil database")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.FromContext(ctx).StartSpan(obs.SpanExec)
	a, err := p.answers(ctx, db, head)
	if err != nil {
		sp.SetLabel("error: " + err.Error())
		sp.End()
		return nil, err
	}
	if sp != nil {
		a.OnClose(func(count int, err error) {
			if err != nil {
				sp.SetLabel("error: " + err.Error())
			} else {
				sp.SetRows(count)
			}
			sp.End()
		})
	}
	return a, nil
}

func (p *Plan) answers(ctx context.Context, db *Database, head []int) (*Answers, error) {
	if p.strategy == StrategyNaive {
		t, err := hdeval.NaiveJoinContext(ctx, db, p.query, head)
		if err != nil {
			return nil, err
		}
		return yannakakis.TableAnswers(t), nil
	}
	root, err := p.eval.Root(ctx, db, p.workers)
	if err != nil {
		return nil, err
	}
	return yannakakis.NewAnswers(ctx, root, head)
}
