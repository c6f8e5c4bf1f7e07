package hdeval

import (
	"fmt"
	"sort"

	"hypertree/internal/bitset"
	"hypertree/internal/decomp"
	"hypertree/internal/fhd"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// This file plans and runs the materialisation of one decomposition node:
// the χ-projection of its λ-join, in columnar form. A node with one λ
// relation is a scan — its table is that relation's cached encoding as it
// stands. A node with several runs the leapfrog triejoin
// (relation.LeapfrogJoinColumnar) over their cached encodings: sorted
// columnar tries intersected variable by variable, worst-case optimal with
// respect to the AGM bound, which the node's fractional cover weights
// certify as r^fhw. The variable order is what the theory prescribes:
// output (χ) variables first, so results stream out sorted and distinct,
// then existential variables by descending fractional cover weight
// (most-covered, hence most selective to intersect, first).

// lfNode is the precomputed columnar plan of one decomposition node: its λ
// edges, the global variable order (χ first, existential suffix by
// descending cover weight), the output prefix length, and — per λ edge —
// the encoding-cache key and column order of its relation, so a warm
// execution reaches its encodings without binding or analysing an atom.
type lfNode struct {
	lam   []int
	order []int
	nChi  int
	keys  []encKey
	subs  [][]int
}

// kernel names how the node is materialised, for NodeInfo and span
// attributes.
func (lf *lfNode) kernel() string {
	if len(lf.lam) == 1 {
		return "scan"
	}
	return "leapfrog"
}

// lfPlanFor computes node n's columnar plan under the given parent (nil at
// the root), rejecting a node that has no table: an empty λ, or a χ variable
// outside var(λ). The order starts with χ — the variables shared with the
// parent first (ascending), the rest after (ascending), which exposes the
// reducer's semijoin variables as a sorted column prefix (the aligned case
// of relation.MergeSemijoin); node tables are sets keyed by variable and
// the head projection fixes the final column order, so this is
// answer-neutral. It continues with the existential variables of var(λ) by
// descending total fractional cover weight (weight 1 per covering edge on
// integral nodes), ties toward the smaller variable id.
func (e *Evaluator) lfPlanFor(n, parent *decomp.Node) (*lfNode, error) {
	lam := n.Lambda.Elems()
	if len(lam) == 0 {
		return nil, fmt.Errorf("hdeval: decomposition node %s has an empty λ", e.nodeLabel(n))
	}
	var lamVars bitset.Set
	for _, e2 := range lam {
		lamVars.UnionInPlace(e.HD.H.Edge(e2))
	}
	if !n.Chi.SubsetOf(lamVars) {
		return nil, fmt.Errorf("hdeval: decomposition node %s has χ variables outside var(λ)", e.nodeLabel(n))
	}
	chi := n.Chi.Elems()
	if parent != nil {
		shared := func(v int) bool { return parent.Chi.Has(v) }
		sort.SliceStable(chi, func(i, j int) bool { return shared(chi[i]) && !shared(chi[j]) })
	}
	exist := lamVars.Diff(n.Chi).Elems()
	if len(exist) > 1 {
		weight := map[int]float64{}
		for _, e2 := range lam {
			w := 1.0
			if n.Weights != nil {
				w = n.Weights[e2]
			}
			e.HD.H.Edge(e2).ForEach(func(v int) { weight[v] += w })
		}
		sort.SliceStable(exist, func(i, j int) bool { return weight[exist[i]] > weight[exist[j]] })
	}
	lf := &lfNode{lam: lam, order: append(chi, exist...), nChi: len(chi)}
	for _, e2 := range lam {
		sub := lf.order // a scan's one relation spans the whole order
		if len(lam) > 1 {
			sub = relation.SubOrder(lf.order, yannakakis.AtomVars(e.Q, e.edgeToAtom[e2]))
		}
		key := encKey{edge: e2, order: orderKey(sub), width: len(sub)}
		if len(lam) == 1 {
			key.width = lf.nChi
		}
		lf.subs, lf.keys = append(lf.subs, sub), append(lf.keys, key)
	}
	return lf, nil
}

// agmCapHint is the leapfrog output pre-size for node n: the AGM bound
// r^fhw priced with the actual bound-table cardinalities, used only when the
// node carries fractional cover weights (an integral product of full
// relation sizes over-allocates wildly). The hint is clamped to the smallest
// λ relation — a selective bag's table is far below its AGM bound, and
// append grows past the hint where it is not; it sizes a buffer, it does
// not limit results.
func agmCapHint(n *decomp.Node, lam []int, cols []*relation.Columnar) int {
	if n.Weights == nil {
		return 0
	}
	rows := map[int]float64{}
	smallest := cols[0].Rows()
	for i, e2 := range lam {
		rows[e2] = float64(cols[i].Rows())
		smallest = min(smallest, cols[i].Rows())
	}
	bound := fhd.AGMBound(n, func(e int) float64 { return rows[e] })
	if bound > float64(smallest) {
		return smallest
	}
	return int(bound)
}

// encoded returns the i-th λ relation of lf in Columnar form under lf's
// variable order, through the evaluator's encoding cache: within one
// database generation each (edge, order) pair is bound once — straight into
// sorted columns (relation.BindColumnar), the kept width being the distinct
// prefix a scan node's χ asks for — across bags sharing the relation and
// across repeated executions under a warm plan cache. A hit touches neither
// the relation nor the atom. Under a traced context each fetch is one
// SpanBind labelled with the relation and hit or miss.
func (b *rootBuilder) encoded(lf *lfNode, i int) (*relation.Columnar, error) {
	sp := b.tr.StartSpan(obs.SpanBind)
	e2 := lf.lam[i]
	key, sub := lf.keys[i], lf.subs[i]
	rel := b.db.Relation(b.e.Q.Atoms[b.e.edgeToAtom[e2]].Pred)
	enc, hit, err := b.e.enc.get(b.db, rel, key, func() (*relation.Columnar, error) {
		return yannakakis.BindAtomColumnar(b.db, b.e.Q, b.e.edgeToAtom[e2], sub[:key.width])
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		outcome := " miss"
		if hit {
			outcome = " hit"
		}
		sp.SetLabel(b.e.HD.H.EdgeName(e2) + outcome)
		sp.SetRows(enc.Rows())
		sp.End()
	}
	return enc, nil
}

// materialize computes node n's table. A scan node's table is its one
// relation's cached encoding as it stands — no join, no re-encode, no
// row-major copy. Any other node fetches its λ encodings, runs the multiway
// intersection over the node's precomputed variable order, which emits the
// sorted, already-distinct χ prefix as the node table's columns; the join
// polls the builder's context, so a request deadline interrupts it. Under a
// traced context the fetches record as SpanBind and the join as one
// SpanNode carrying the join count and the actual vs estimated cardinality.
func (b *rootBuilder) materialize(n *decomp.Node) (*yannakakis.Node, error) {
	lf := b.e.lfNodes[n]
	cols := make([]*relation.Columnar, len(lf.lam))
	for i := range lf.lam {
		var err error
		if cols[i], err = b.encoded(lf, i); err != nil {
			return nil, err
		}
	}
	sp := b.tr.StartSpan(obs.SpanNode)
	out := &yannakakis.Node{Enc: cols[0]}
	if len(cols) > 1 {
		var err error
		out.Enc, err = relation.LeapfrogJoinColumnar(b.ctx, cols, lf.order, lf.nChi, agmCapHint(n, lf.lam, cols))
		if err != nil {
			return nil, err
		}
		sp.AddSteps(int64(len(cols) - 1))
	}
	b.endNodeSpan(sp, n, out.Rows())
	return out, nil
}

// endNodeSpan stamps a node span with the node's identity, kernel, estimate
// and actual cardinality, and publishes it.
func (b *rootBuilder) endNodeSpan(sp *obs.Span, n *decomp.Node, rows int) {
	if sp == nil {
		return
	}
	id := b.e.nodeID[n]
	info := b.e.NodeInfos()[id]
	sp.SetKernel(info.Kernel)
	sp.SetNode(id)
	sp.SetLabel(info.Label)
	sp.SetEst(n.EstRows)
	sp.SetRows(rows)
	sp.End()
}
