package decomp

import (
	"math"

	"hypertree/internal/hypergraph"
)

// This file is the cost model of the planner: one estimate of the size of a
// node table, read by everything that prices a node — the greedy covers,
// the shape tie-breaks of the heuristic engines, the auto race, and the
// evaluator's physical plan (est=, child ordering, traced q-errors). Lemma
// 4.6 materialises each node p as π_χ(p)(⋈ λ(p)) and Theorems 4.7/4.8 price
// a plan at the size of those tables, so the estimate is of that table, from
// the statistics a CostModel carries: per hypergraph edge the row count of
// its relation and, per variable of the edge, the distinct count of the
// column binding it. NodeCost takes the smallest of three bounds:
//
//	(a) the AGM bound Π_{e∈λ} |R_e|^{w_e} (w ≡ 1 on integral nodes, the LP
//	    weights on fractional ones) — a true upper bound, and the only one
//	    that knows the fractional weights, but blind to whether two λ
//	    relations share a variable: a join and a Cartesian product of the
//	    same relations cost the same;
//	(b) Π_{v∈χ} min_{e∈λ, v∈e} d_e(v) — the table is a set of χ-tuples and
//	    every binding of v survives in every λ relation holding v;
//	(c) the join estimate under independence and containment: each λ
//	    relation projected onto χ holds min(|R_e|, Π_{v∈var(e)∩χ} d_e(v))
//	    tuples, and every χ variable held by m ≥ 2 λ edges divides the
//	    product of those by all but the smallest of its m distinct counts
//	    (|R ⋈ S| ≈ |R|·|S| / max(d_R(v), d_S(v)), m-way).
//
// Existential variables (var(λ) ∖ χ) are priced after projection in (c):
// the kernel binds χ first (see hdeval's variable order), so a join through
// a variable outside χ is paid as the product of the projections. A nil
// model (no statistics) makes every node cost 1, collapsing cost ranking
// back to width ranking.

// CostModel is the immutable statistics value of one compilation, indexed
// by the edges and vertices of the hypergraph being decomposed. Build one
// with NewCostModel; the nil model is valid and means "no statistics".
type CostModel struct {
	edges []edgeStats
}

// edgeStats is one edge's share of a CostModel.
type edgeStats struct {
	rows     float64   // clamped to ≥ 1
	vars     []int     // the edge's variables, ascending
	distinct []float64 // parallel to vars; 0 = unknown
}

// NewCostModel builds the cost model of h. rows[e] is the cardinality of
// the relation behind edge e (missing or < 1 counts 1, so an empty or
// unknown relation cannot zero out a product and erase the other λ edges);
// distinct(e, v) is the number of distinct values variable v takes in that
// relation — the minimum over the columns binding v when it repeats — or 0
// when unknown. A nil distinct leaves every count unknown, which reduces
// NodeCost to the AGM bound.
func NewCostModel(h *hypergraph.Hypergraph, rows []float64, distinct func(e, v int) float64) *CostModel {
	m := &CostModel{edges: make([]edgeStats, h.NumEdges())}
	for e := range m.edges {
		es := edgeStats{rows: 1, vars: h.Edge(e).Elems()}
		if e < len(rows) && rows[e] > 1 {
			es.rows = rows[e]
		}
		es.distinct = make([]float64, len(es.vars))
		if distinct != nil {
			for i, v := range es.vars {
				es.distinct[i] = max(distinct(e, v), 0)
			}
		}
		m.edges[e] = es
	}
	return m
}

// Rows returns the relation cardinality the model holds for edge e (≥ 1).
func (m *CostModel) Rows(e int) float64 { return m.edges[e].rows }

// NodeCost estimates the cardinality of node n's table π_χ(⋈ λ) under m:
// the minimum of the three bounds described at the top of this file,
// clamped to ≥ 1. It is the only function that turns statistics into a node
// estimate. A distinct count the model does not know voids bound (b),
// lifts its edge's projection cap in (c) and counts 1 in (c)'s divisor, so
// missing statistics only ever loosen the estimate. n need not be a
// finished node: the greedy cover prices partial covers, whose uncovered χ
// variables void (b) and constrain nothing else. A nil model costs every
// node 1.
func NodeCost(n *Node, m *CostModel) float64 {
	if m == nil {
		return 1
	}
	agm, join := 1.0, 1.0
	n.Lambda.ForEach(func(e int) {
		es := m.edges[e]
		w := 1.0
		if n.Weights != nil {
			w = n.Weights[e]
		}
		agm *= math.Pow(es.rows, w)
		proj := 1.0 // Π of e's distinct counts over χ, +Inf once one is unknown
		for i, v := range es.vars {
			if !n.Chi.Has(v) {
				continue
			}
			if es.distinct[i] == 0 {
				proj = math.Inf(1)
				break
			}
			proj *= es.distinct[i]
		}
		join *= min(es.rows, proj)
	})
	chiBound := 1.0
	n.Chi.ForEach(func(v int) {
		// over the λ edges holding v: how many, the product of their counts
		// (unknown = 1) and the smallest known one
		holders, prod, smallest, unknown := 0, 1.0, math.Inf(1), false
		n.Lambda.ForEach(func(e int) {
			es := m.edges[e]
			for i, u := range es.vars {
				if u != v {
					continue
				}
				holders++
				if d := es.distinct[i]; d > 0 {
					prod *= d
					smallest = min(smallest, d)
				} else {
					unknown = true
				}
			}
		})
		chiBound *= smallest // +Inf when no λ edge knows v: no bound through it
		switch {
		case holders < 2:
		case unknown:
			join /= prod // the unknown count is the smallest, at 1
		default:
			join /= prod / smallest
		}
	})
	return max(min(agm, join, chiBound), 1)
}

// CostWith returns the total estimated cost of evaluating the
// decomposition: the sum of NodeCost over all nodes. This is the quantity
// the adaptive race minimises and the heuristic engines use to break width
// ties — the per-node materialisations dominate evaluation (the semijoin
// passes are linear in the node tables), so their summed sizes track
// wall-clock well enough to rank same-width plans.
func (d *Decomposition) CostWith(m *CostModel) float64 {
	total := 0.0
	for _, n := range d.Nodes() {
		total += NodeCost(n, m)
	}
	return total
}
