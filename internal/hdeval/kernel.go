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

// This file selects and plans the intra-bag join kernel. Each decomposition
// node's table is the χ-projection of its λ-join; the chain kernel computes
// it as a left-deep sequence of binary hash joins followed by a dedup
// projection, while the leapfrog kernel (relation.LeapfrogJoin) encodes the
// λ relations into sorted columnar tries and intersects them variable by
// variable — worst-case optimal with respect to the AGM bound, which the
// node's fractional cover weights certify as r^fhw. The variable order is
// exactly what the theory prescribes: output (χ) variables first, so results
// stream out sorted and distinct, then existential variables by descending
// fractional cover weight (most-covered, hence most selective to intersect,
// first).

// Kernel names an intra-bag λ-join algorithm.
type Kernel string

// The available kernels. KernelChain is the left-deep binary hash-join
// chain (the historical default); KernelLeapfrog forces the columnar
// leapfrog-triejoin on every node; KernelAuto decides per bag. With
// statistics attached (NewEvaluatorCost) the auto decision is cost-based:
// each bag's λ-join is priced as a hash chain versus a leapfrog
// encode+enumerate from per-edge row and distinct-count estimates, capped
// by the AGM bound under fractional covers (see kernelcost.go). Without
// usable statistics auto falls back to the arity rule — leapfrog when the
// bag joins at least three relations, or at least two under a fractional
// cover — and every decision is recorded per node (NodeInfo.Kernel, span
// kernel attributes, Plan.Explain).
const (
	KernelChain    Kernel = "chain"
	KernelLeapfrog Kernel = "leapfrog"
	KernelAuto     Kernel = "auto"
)

// ParseKernel parses a kernel name; the empty string means KernelChain.
func ParseKernel(s string) (Kernel, error) {
	switch Kernel(s) {
	case "":
		return KernelChain, nil
	case KernelChain, KernelLeapfrog, KernelAuto:
		return Kernel(s), nil
	}
	return "", fmt.Errorf("hdeval: unknown join kernel %q (want chain, leapfrog or auto)", s)
}

// lfNode is the precomputed columnar plan of one decomposition node: the
// global variable order (χ first, existential suffix by descending cover
// weight), the output prefix length, and — per λ edge, in lamOrder — the
// encoding-cache key and column order of its relation, so a warm execution
// reaches its encodings without binding or analysing an atom.
type lfNode struct {
	order []int
	nChi  int
	keys  []encKey
	subs  [][]int
}

// kernelScan labels a single-relation bag: there is no join to choose a
// kernel for, so whatever the policy the node table is the relation's
// cached encoding (χ-first, prefix-projected when χ drops atom variables).
const kernelScan = "scan"

// Kernel returns the evaluator's configured join kernel.
func (e *Evaluator) Kernel() Kernel { return e.kernel }

// lfPlanFor computes node n's columnar plan, or nil when the node must fall
// back to the chain (a χ variable outside var(λ) — impossible on complete
// decompositions, but the chain is always safe). The order starts with χ in
// chiElems order — so the output table's columns match the chain path's
// Project(chiElems) exactly — and continues with the existential variables
// of var(λ) by descending total fractional cover weight (weight 1 per
// covering edge on integral nodes), ties toward the smaller variable id.
func (e *Evaluator) lfPlanFor(n *decomp.Node) *lfNode {
	lam := e.lamOrder[n]
	var lamVars bitset.Set
	for _, e2 := range lam {
		lamVars.UnionInPlace(e.HD.H.Edge(e2))
	}
	if !n.Chi.SubsetOf(lamVars) {
		return nil
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
	chi := e.chiElems[n]
	lf := &lfNode{order: append(append([]int(nil), chi...), exist...), nChi: len(chi)}
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
	return lf
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

// encoded returns the i-th λ relation of node n (in lamOrder) in Columnar
// form under lf's variable order, through the evaluator's encoding cache:
// within one database generation each (edge, order) pair is bound and
// encoded once — across bags sharing the relation and across repeated
// executions under a warm plan cache. A hit touches neither the relation
// nor the atom. Under a traced context each fetch is one SpanBind labelled
// with the relation and hit or miss.
func (b *rootBuilder) encoded(n *decomp.Node, lf *lfNode, i int) (*relation.Columnar, error) {
	sp := b.tr.StartSpan(obs.SpanBind)
	e2 := b.e.lamOrder[n][i]
	key, sub := lf.keys[i], lf.subs[i]
	rel := b.db.Relation(b.e.Q.Atoms[b.e.edgeToAtom[e2]].Pred)
	enc, hit, err := b.e.enc.get(b.db, rel, key, func() (*relation.Columnar, error) {
		t, err := b.bind(e2)
		if err != nil {
			return nil, err
		}
		return relation.NewColumnar(t, sub).Prefix(key.width), nil
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

// materializeLeapfrog is the columnar form of materialize. A scan node's
// table is its one relation's cached encoding as it stands — no join, no
// re-encode, no row-major copy. Any other node fetches its λ encodings,
// runs the multiway intersection over the node's precomputed variable
// order, and takes the sorted, already-distinct χ prefix as the node table
// — re-encoded for free (NewColumnarSorted) so the reducer can
// merge-semijoin it.
func (b *rootBuilder) materializeLeapfrog(n *decomp.Node, lf *lfNode) (*yannakakis.Node, error) {
	lam := b.e.lamOrder[n]
	cols := make([]*relation.Columnar, len(lam))
	for i := range lam {
		var err error
		if cols[i], err = b.encoded(n, lf, i); err != nil {
			return nil, err
		}
	}
	sp := b.tr.StartSpan(obs.SpanNode)
	out := &yannakakis.Node{Enc: cols[0]}
	if len(lam) > 1 {
		out.Table = relation.LeapfrogJoinColumnar(cols, lf.order, lf.nChi, agmCapHint(n, lam, cols))
		out.Enc = relation.NewColumnarSorted(out.Table)
		sp.AddSteps(int64(len(lam) - 1))
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
	sp.SetKernel(b.e.kernelOf[n])
	if id, ok := b.e.nodeID[n]; ok {
		sp.SetNode(id)
		sp.SetLabel(b.e.NodeInfos()[id].Label)
	}
	sp.SetEst(n.EstRows)
	sp.SetRows(rows)
	sp.End()
}
