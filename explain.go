package hypertree

import (
	"fmt"
	"strings"

	"hypertree/internal/hdeval"
	"hypertree/internal/obs"
)

// EstimatedCost returns the plan's total estimated evaluation cost under
// the statistics it was compiled with: the sum over decomposition nodes of
// the estimated cardinality of each node's materialised table π_χ(⋈ λ)
// (the join-size estimate from cardinalities and per-column distinct
// counts, never above the AGM bound Π_{R∈λ} |R|^w). It is the quantity
// cost-based compilation minimises among same-width plans. 0
// means no cost model: the plan was compiled without WithStats/
// WithCostModel, or its strategy uses no decomposition.
func (p *Plan) EstimatedCost() float64 { return p.estCost }

// PlanStats returns the statistics snapshot the plan was compiled with, or
// nil when compilation was width-only.
func (p *Plan) PlanStats() *Stats { return p.stats }

// Explain renders the plan's per-node cost/width report: for every
// decomposition node its χ and λ labels (with fractional weights where
// present), the node width, and — when the plan was compiled with
// statistics — the relation cardinalities joined and the estimated
// cardinality of the node table; a node joining several relations also
// shows the variable order its leapfrog join binds in. The header line
// summarises the plan, the
// ranking mode (cost-based or width-only) and the total estimated cost.
// Reading the report answers the planner questions: which relations landed
// in λ, what each node is expected to materialise, and why this plan beat
// its same-width rivals.
func (p *Plan) Explain() string {
	var b strings.Builder
	b.WriteString(p.String())
	switch {
	case p.strategy == StrategyAcyclic:
		b.WriteString("\n  no decomposition search: the join tree is a width-1 hypertree decomposition (Theorem 4.5);\n" +
			"  Yannakakis' semijoin passes and the enumeration run over one cached columnar scan per atom\n")
		return b.String()
	case p.dec == nil:
		fmt.Fprintf(&b, "\n  no decomposition: the %s strategy plans no λ-joins\n", strategyName(p.strategy))
		return b.String()
	case p.stats == nil:
		b.WriteString("\n  ranking: width-only (no statistics; compile with WithStats/WithCostModel for cost-based plans)\n")
	default:
		fmt.Fprintf(&b, "\n  ranking: cost-based, estimated total cost %.4g\n  %s\n", p.estCost, p.stats)
	}
	var visit func(n, parent *DecompositionNode, depth int)
	visit = func(n, parent *DecompositionNode, depth int) {
		indent := strings.Repeat("  ", depth+1)
		fmt.Fprintf(&b, "%sχ={%s} λ={%s} width=%d",
			indent,
			strings.Join(p.dec.H.VertexNames(n.Chi), ","),
			strings.Join(p.lambdaLabels(n), ","),
			n.Lambda.Len())
		if n.Weights != nil {
			total := 0.0
			for _, w := range n.Weights {
				total += w
			}
			fmt.Fprintf(&b, " fw=%.4g", total)
		}
		if p.stats != nil {
			fmt.Fprintf(&b, " est=%.4g", n.EstRows)
		}
		if n.Lambda.Len() > 1 {
			order, _ := hdeval.VarOrder(p.dec.H, n, parent)
			fmt.Fprintf(&b, " order=%s", hdeval.OrderString(p.dec.H, order))
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			visit(c, n, depth+1)
		}
	}
	if p.dec.Root != nil {
		visit(p.dec.Root, nil, 0)
	}
	return b.String()
}

// LastTrace returns the trace of the plan's most recent traced execution
// (Execute under ContextWithTrace, or any execution of a WithTrace plan),
// or nil when no execution has been traced. Safe for concurrent use.
func (p *Plan) LastTrace() *Trace {
	return p.lastTrace.Load()
}

// ExplainAnalyze renders the EXPLAIN ANALYZE report: the Explain tree with,
// per decomposition node, the actual materialised cardinality of the most
// recent traced execution next to the planner's estimate and their q-error
// — the ground truth Explain alone cannot show — followed by the bind step
// (relations fetched, how many straight from the encoding cache), the
// execution pass timings (semijoin up/down, enumeration) and any
// compile/race spans the trace holds. Reading it answers the post-mortem
// questions: which node the cost model mispriced, where the wall-clock
// went, and whether the race picked the right engine. Without a traced
// execution it falls back to Explain plus a pointer at how to get one.
func (p *Plan) ExplainAnalyze() string {
	tr := p.LastTrace()
	if tr == nil {
		return p.Explain() + "  analyze: no traced execution yet — execute under ContextWithTrace, or compile with WithTrace\n"
	}
	spans := tr.Spans()

	// Scope the per-node numbers to the most recent execution: the window
	// from just after the previous SpanExec through the last one (spans
	// complete in End order, so an execution's spans end before its
	// SpanExec does).
	prev, last := -1, -1
	execs := 0
	for i, s := range spans {
		if s.Name == obs.SpanExec {
			prev, last = last, i
			execs++
		}
	}
	window := spans
	if last >= 0 {
		window = spans[prev+1 : last+1]
	}

	nodeSpans := map[int]obs.Span{}
	shardCounts := map[int]int{}
	var passes []obs.Span
	var execSpan *obs.Span
	var binds, bindHits, bindMicros int64
	for _, s := range window {
		switch s.Name {
		case obs.SpanBind:
			binds++
			bindMicros += s.Micros
			if strings.HasSuffix(s.Label, " hit") {
				bindHits++
			}
		case obs.SpanNode, obs.SpanNodeSharded:
			if s.Node >= 0 {
				nodeSpans[s.Node] = s
			}
		case obs.SpanShard:
			if s.Node >= 0 {
				shardCounts[s.Node]++
			}
		case obs.SpanSemijoinUp, obs.SpanSemijoinDown, obs.SpanEnumerate:
			passes = append(passes, s)
		case obs.SpanExec:
			s := s
			execSpan = &s
		}
	}

	var b strings.Builder
	b.WriteString(p.String())
	b.WriteString("\n")
	if execSpan != nil {
		fmt.Fprintf(&b, "  analyze: %dµs", execSpan.Micros)
		if execSpan.Rows >= 0 {
			fmt.Fprintf(&b, ", %d answer rows", execSpan.Rows)
		}
		if execs > 1 {
			fmt.Fprintf(&b, " (latest of %d traced executions)", execs)
		}
		b.WriteString("\n")
	}
	if p.eval != nil {
		for _, info := range p.eval.NodeInfos() {
			indent := strings.Repeat("  ", info.Depth+1)
			fmt.Fprintf(&b, "%s%s", indent, info.Label)
			fmt.Fprintf(&b, " kernel=%s", info.Kernel)
			if info.Order != "" {
				fmt.Fprintf(&b, " order=%s", info.Order)
			}
			if info.Keep != "" {
				fmt.Fprintf(&b, " keep=%s", info.Keep)
			}
			s, ok := nodeSpans[info.ID]
			switch {
			case !ok:
				b.WriteString("  (no span in last traced execution)")
			case info.EstRows > 0:
				fmt.Fprintf(&b, "  est=%.4g actual=%d q-err=%.3g rows, %d joins, %dµs",
					info.EstRows, s.Rows, obs.QError(info.EstRows, s.Rows), s.Steps, s.Micros)
			default:
				fmt.Fprintf(&b, "  actual=%d rows (no estimate), %d joins, %dµs", s.Rows, s.Steps, s.Micros)
			}
			if n := shardCounts[info.ID]; n > 0 {
				fmt.Fprintf(&b, " across %d shards", n)
			}
			b.WriteString("\n")
		}
	}
	if binds > 0 {
		fmt.Fprintf(&b, "  bind: %d relations fetched, %d from the encoding cache, %dµs\n", binds, bindHits, bindMicros)
	}
	for _, s := range passes {
		fmt.Fprintf(&b, "  %s: %d steps, %dµs", passName(s.Name), s.Steps, s.Micros)
		if s.Rows >= 0 {
			fmt.Fprintf(&b, ", %d rows", s.Rows)
		}
		b.WriteString("\n")
	}
	for _, s := range spans {
		switch s.Name {
		case obs.SpanCompile, obs.SpanDecompose, obs.SpanRace:
			fmt.Fprintf(&b, "  %s: %dµs  %s\n", passName(s.Name), s.Micros, s.Label)
		}
	}
	return b.String()
}

// passName maps a span name to its report label.
func passName(name string) string {
	switch name {
	case obs.SpanSemijoinUp:
		return "semijoin up"
	case obs.SpanSemijoinDown:
		return "semijoin down"
	case obs.SpanEnumerate:
		return "enumerate"
	case obs.SpanCompile:
		return "compile"
	case obs.SpanDecompose:
		return "decompose"
	case obs.SpanRace:
		return "race entrant"
	default:
		return name
	}
}

// lambdaLabels renders a node's λ edges, each annotated with its fractional
// weight (when present) and its estimated cardinality (when statistics are
// attached), in ascending edge order.
func (p *Plan) lambdaLabels(n *DecompositionNode) []string {
	elems := n.Lambda.Elems() // ascending by construction
	labels := make([]string, 0, len(elems))
	for _, e := range elems {
		l := p.dec.H.EdgeName(e)
		if n.Weights != nil {
			if w, ok := n.Weights[e]; ok {
				l += fmt.Sprintf("·%.3g", w)
			}
		}
		if p.cost != nil {
			l += fmt.Sprintf("[%.4g rows]", p.cost.Rows(e))
		}
		labels = append(labels, l)
	}
	return labels
}
