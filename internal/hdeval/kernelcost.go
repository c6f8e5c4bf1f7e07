package hdeval

import (
	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/stats"
)

// This file is the cost model behind the auto kernel: per bag, the chain
// (left-deep hash joins) and leapfrog (columnar triejoin) kernels are
// priced against the per-edge row and distinct-count estimates the planner
// extracted from its statistics snapshot, and the cheaper kernel runs. The
// constants are calibrated against the E27/E29 benchmark measurements, and
// the asymmetry they encode is stark: a row through a hash-join step costs
// roughly an order of magnitude more than a cell through the counting-sort
// encoder (string join keys, map inserts and the dedup projection pass,
// against dense int32 sweeps), so leapfrog wins any bag large enough to
// amortise its fixed per-bag setup — allocating the columnar buffers,
// dictionaries and iterator state — while the chain keeps the tiny bags
// where that setup dominates everything. Single-relation bags are not
// priced at all: they have no join, and run as scans of the cached
// encoding whatever the policy. Without usable statistics the decision
// falls back to the arity rule.
const (
	// costHashRow prices one row through a hash join step (build, probe,
	// emit, or the dedup projection), relative to costLfEncodeCell.
	costHashRow = 12.0
	// costLfEncodeCell prices one (row, column) cell through the columnar
	// dictionary/counting-sort encoder.
	costLfEncodeCell = 1.0
	// costLfEmitRow prices one emitted leapfrog row per trie level.
	costLfEmitRow = 2.0
	// costLfSetup is the fixed per-bag price of standing the leapfrog
	// kernel up (columnar buffers, dictionaries, iterators) — the term
	// that hands tiny bags to the chain.
	costLfSetup = 4000.0
)

// decideKernel records the kernel of node n. A single-relation bag whose χ
// its atom covers is a scan (see kernelScan) under every policy — the path
// follows from the node's shape alone. Otherwise the decision is named and
// qualified with why: "chain"/"leapfrog" (forced policies), "(cost)" for a
// statistics-priced auto decision, "(arity)" for the statistics-free
// fallback rule, and "chain(fallback)" when the policy chose leapfrog but
// the node has no leapfrog plan (a χ variable outside var(λ)). Decisions
// are recorded per node in NodeInfo.Kernel, on every node span, and in
// Plan.Explain.
func (e *Evaluator) decideKernel(n *decomp.Node) {
	if len(e.lamOrder[n]) == 1 {
		if p := e.lfPlanFor(n); p != nil {
			e.lfNodes[n], e.kernelOf[n] = p, kernelScan
			return
		}
	}
	use, why := e.chooseKernel(n)
	if use {
		if p := e.lfPlanFor(n); p != nil {
			e.lfNodes[n], e.kernelOf[n] = p, string(KernelLeapfrog)+why
			return
		}
		// The policy wanted leapfrog but the node cannot run it: fall back
		// to the chain, observably (counted, and named in trace + explain).
		e.lfFallbacks++
		why = "(fallback)"
	}
	e.kernelOf[n] = string(KernelChain) + why
}

// chooseKernel decides whether node n should run the leapfrog kernel under
// the evaluator's policy, returning the qualifier for the decision record.
func (e *Evaluator) chooseKernel(n *decomp.Node) (lf bool, why string) {
	switch e.kernel {
	case KernelLeapfrog:
		return true, ""
	case KernelAuto:
		lam := e.lamOrder[n]
		if lf, ok := e.costDecision(n, lam); ok {
			return lf, "(cost)"
		}
		return len(lam) >= 3 || (len(lam) >= 2 && n.Weights != nil), "(arity)"
	}
	return false, ""
}

// costDecision prices node n's λ-join under both kernels. ok is false when
// the evaluator carries no usable per-edge statistics for the bag, in which
// case the caller falls back to the arity rule.
func (e *Evaluator) costDecision(n *decomp.Node, lam []int) (lf, ok bool) {
	es := e.edgeStats
	if es == nil || es.Rows == nil || es.Distinct == nil {
		return false, false
	}
	rels := make([]stats.EdgeRel, 0, len(lam))
	encodeCells := 0.0
	levels := map[int]bool{}
	for _, e2 := range lam {
		if e2 >= len(es.Rows) || e2 >= len(es.Distinct) || es.Distinct[e2] == nil {
			return false, false
		}
		var vars []int
		e.HD.H.Edge(e2).ForEach(func(v int) {
			vars = append(vars, v)
			levels[v] = true
		})
		rows := es.Rows[e2]
		rels = append(rels, stats.EdgeRel{Rows: rows, Vars: vars, Distinct: es.Distinct[e2]})
		encodeCells += rows * float64(len(vars))
	}
	joinSize, work, ok := stats.ChainEstimate(rels)
	if !ok {
		return false, false
	}
	// Leapfrog never emits more than the AGM bound r^fhw; under a
	// fractional cover the certificate caps the size estimate.
	size := joinSize
	if n.Weights != nil {
		if agm := fhd.AGMBound(n, func(e2 int) float64 {
			if e2 < len(es.Rows) {
				return es.Rows[e2]
			}
			return 0
		}); agm < size {
			size = agm
		}
	}
	chainCost := costHashRow * work
	lfCost := costLfSetup + costLfEncodeCell*encodeCells + costLfEmitRow*float64(len(levels))*size
	return lfCost < chainCost, true
}
