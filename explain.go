package hypertree

import (
	"fmt"
	"strings"

	"hypertree/internal/hdeval"
	"hypertree/internal/obs"
)

// EstimatedCost returns the plan's total estimated evaluation cost under
// the statistics it was compiled with: the sum over the nodes the plan
// executes — Lemma 4.4's completion scans included — of the estimated
// cardinality of each node's table π_keep(⋈ λ), the est= figures Explain
// prints (the join-size estimate from cardinalities and per-column distinct
// counts, never above the AGM bound Π_{R∈λ} |R|^w). The race ranks
// same-width entrants by the χ-priced sum over their logical trees instead
// (EstimateCost); this is the price of what runs. 0 means no cost model:
// the plan was compiled without WithStats/WithCostModel, or its strategy
// uses no decomposition.
func (p *Plan) EstimatedCost() float64 {
	total := 0.0
	if p.eval != nil {
		for _, n := range p.eval.Nodes() {
			total += n.EstRows
		}
	}
	return total
}

// PlanStats returns the statistics snapshot the plan was compiled with, or
// nil when compilation was width-only. A PlanCache hit returns the plan
// compiled under the first snapshot with the asking snapshot's fingerprint:
// the same grid values, so the same prices and the same plan, but not
// necessarily the same exact counts.
func (p *Plan) PlanStats() *Stats { return p.stats }

// Explain renders the plan's report. The header is the logical plan — its
// strategy, the decomposition's width and fractional width, the decomposer
// — and the ranking mode (cost-based with the estimated total, or
// width-only). Below it, one line per node in preorder, is the physical plan
// the plan executes, completion scans included: the node's ID and χ/λ label
// as its exec/node spans carry them, its kernel, a join's variable order,
// the columns its table keeps where they are fewer than χ, and under
// statistics its estimate; a node with fractional weights or statistics
// also lists its λ relations with their weights and cardinalities
// (cover=…) and its fractional width. Under statistics the estimates and
// the cover cardinalities are priced on the grid values of the counts (see
// Stats.Fingerprint); the stats{…} line below the ranking shows the exact
// counts of the snapshot the plan was compiled with (PlanStats), which for
// a plan served by a PlanCache may be an earlier snapshot with the same
// fingerprint. Reading the report answers the
// planner questions: which relations landed in λ, what each node is
// expected to materialise, and why this plan beat its same-width rivals.
func (p *Plan) Explain() string {
	var b strings.Builder
	b.WriteString(p.String())
	switch {
	case p.eval == nil:
		fmt.Fprintf(&b, "\n  no decomposition: the %s strategy plans no λ-joins\n", strategyName(p.strategy))
		return b.String()
	case p.dec == nil:
		b.WriteString("\n  no decomposition search: the join tree is a width-1 hypertree decomposition (Theorem 4.5),\n" +
			"  one cached columnar scan per atom under Yannakakis' counting descent and enumeration\n")
	case p.stats == nil:
		b.WriteString("\n  ranking: width-only (no statistics; compile with WithStats/WithCostModel for cost-based plans)\n")
	default:
		fmt.Fprintf(&b, "\n  ranking: cost-based, estimated total cost %.4g\n  %s\n", p.EstimatedCost(), p.stats)
	}
	for _, n := range p.eval.Nodes() {
		writeNode(&b, n)
		if n.Weights != nil || p.cost != nil {
			fmt.Fprintf(&b, " cover=%s", strings.Join(p.lambdaLabels(n), ","))
		}
		if n.Weights != nil {
			total := 0.0
			for _, w := range n.Weights {
				total += w
			}
			fmt.Fprintf(&b, " fw=%.4g", total)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// writeNode writes what Explain and EXPLAIN ANALYZE print alike for one
// physical node: the indent of its depth, its ID and label, its kernel, a
// join's order=, keep= where the table keeps fewer columns than χ, and est=
// under statistics.
func writeNode(b *strings.Builder, n hdeval.Node) {
	fmt.Fprintf(b, "%s#%d %s kernel=%s", strings.Repeat("  ", n.Depth+1), n.ID, n.Label, n.Kernel)
	if n.OrderNames != "" {
		fmt.Fprintf(b, " order=%s", n.OrderNames)
	}
	if n.Keep != "" {
		fmt.Fprintf(b, " keep=%s", n.Keep)
	}
	if n.EstRows > 0 {
		fmt.Fprintf(b, " est=%.4g", n.EstRows)
	}
}

// ExplainAnalyze renders the EXPLAIN ANALYZE report of the latest
// execution in tr, a ContextWithTrace trace: the Explain tree with, per
// decomposition node, the actual materialised cardinality next to the
// planner's estimate and their q-error — the ground truth Explain alone
// cannot show — followed by the bind step (relations fetched, how many
// straight from the executing database's encoding cache, which every plan
// over that database fills), the execution pass timings (semijoin
// up, enumeration) and any compile/race spans tr holds. Reading it answers
// the post-mortem questions: which node the cost model mispriced, where the
// wall-clock went, and whether the race picked the right engine. Without
// an execution in tr (or tr nil) it falls back to Explain plus a hint.
func (p *Plan) ExplainAnalyze(tr *Trace) string {
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
	if last < 0 {
		return p.Explain() + "  analyze: no traced execution — execute under ContextWithTrace and pass its trace\n"
	}
	window := spans[prev+1 : last+1]

	nodeSpans := map[int]obs.Span{}
	var passes []obs.Span
	var binds, bindHits, bindMicros int64
	for _, s := range window {
		switch s.Name {
		case obs.SpanBind:
			binds++
			bindMicros += s.Micros
			if strings.HasSuffix(s.Label, " hit") {
				bindHits++
			}
		case obs.SpanNode:
			if s.Node >= 0 {
				nodeSpans[s.Node] = s
			}
		case obs.SpanSemijoinUp, obs.SpanEnumerate:
			passes = append(passes, s)
		}
	}

	var b strings.Builder
	b.WriteString(p.String())
	b.WriteString("\n")
	exec := spans[last]
	fmt.Fprintf(&b, "  analyze: %dµs", exec.Micros)
	if exec.Rows >= 0 {
		fmt.Fprintf(&b, ", %d answer rows", exec.Rows)
	}
	if execs > 1 {
		fmt.Fprintf(&b, " (latest of %d traced executions)", execs)
	}
	b.WriteString("\n")
	if p.eval != nil {
		for _, n := range p.eval.Nodes() {
			writeNode(&b, n)
			s, ok := nodeSpans[n.ID]
			switch {
			case !ok:
				b.WriteString("  (no span in last traced execution)")
			case n.EstRows > 0:
				fmt.Fprintf(&b, "  actual=%d q-err=%.3g rows, %d joins, %dµs",
					s.Rows, obs.QError(n.EstRows, s.Rows), s.Steps, s.Micros)
			default:
				fmt.Fprintf(&b, "  actual=%d rows (no estimate), %d joins, %dµs", s.Rows, s.Steps, s.Micros)
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
// weight (when present) and its relation's cardinality (when statistics are
// attached), in ascending edge order.
func (p *Plan) lambdaLabels(n hdeval.Node) []string {
	elems := n.Lambda.Elems() // ascending by construction
	labels := make([]string, 0, len(elems))
	for _, e := range elems {
		l := p.dec.H.EdgeName(e)
		if w, ok := n.Weights[e]; ok {
			l += fmt.Sprintf("·%.3g", w)
		}
		if p.cost != nil {
			l += fmt.Sprintf("[%.4g rows]", p.cost.Rows(e))
		}
		labels = append(labels, l)
	}
	return labels
}
