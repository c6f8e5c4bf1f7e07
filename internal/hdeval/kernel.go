package hdeval

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// This file plans and runs the materialisation of one decomposition node:
// the projection of its λ-join onto the χ variables the rest of the tree
// still reads, in columnar form. A node with one λ relation is a scan — its
// table is that relation's encoding as it stands, cached on the database
// (relation.Database.Encoded). A node with several runs the leapfrog
// triejoin (relation.LeapfrogJoinColumnar) over their encodings: sorted
// columnar tries intersected variable by variable, worst-case optimal with
// respect to the AGM bound, which the node's fractional cover weights
// certify as r^fhw. varOrder chooses the variable order.
//
// Lemma 4.6 materialises π_χ(p)(⋈ λ(p)), but a table need only hold
// keep(p) = χ(p) ∩ (head ∪ χ(parent) ∪ ⋃ χ(children)), over the completed
// tree: the counting descent joins p with a neighbour q on χ(p) ∩ χ(q)
// and the walk emits head variables, and by the connectedness
// condition (Definition 4.1) a χ(p) variable in no neighbour's χ occurs in
// no other node, so projecting it away commutes with the tree's join. A scan
// orders keep(p) first (a root scan its head variables before the rest) and
// keeps that distinct prefix. A join keeps varOrder's connectivity order —
// keep(p) first would bind kept variables no λ edge relates before the join
// variable between them — and outputs the shortest prefix of it covering
// keep(p); every later variable stops at its first witness, so a Boolean
// bag (keep = ∅) is a search for one.

// Node is one node of the physical plan: the completed decomposition
// (Lemma 4.4) NewEvaluator flattens once into a preorder slice, immutable
// after construction. The builders, the span labels, Explain and EXPLAIN
// ANALYZE all read this slice, so what a report describes is what runs. IDs
// are preorder indices, which span Node fields carry; children are indices
// into the same slice, by ascending estimate under a cost model.
type Node struct {
	ID, Depth int
	Children  []int
	// Chi, Lambda and Weights are the node's labels (Definition 4.1); a
	// completion leaf ⟨var(e), {e}⟩ carries no weights.
	Chi, Lambda bitset.Set
	Weights     map[int]float64
	// Order is the variable order the node binds in (χ first, then the
	// existential variables; see varOrder), and the node table's columns are
	// Order[:NOut].
	Order []int
	NOut  int
	// EstRows is the decomp.NodeCost of the table the node builds — χ
	// narrowed to its kept columns, so a Boolean bag is priced at one row —
	// and 0 without a cost model.
	EstRows float64
	// Kernel names how the table is built, which |λ| alone decides: "scan"
	// for one relation, "leapfrog" for several.
	Kernel string
	// Label renders χ and λ ("χ{X,Y} λ{r,s}"), OrderNames a leapfrog node's
	// Order ("X1,X2,X4"; empty on a scan, whose order costs nothing), and Keep
	// the table's columns when they are fewer than χ's ("{X1}", "{}"). They
	// are rendered on the first Nodes call.
	Label, OrderNames, Keep string

	lam       []int    // λ's edges, ascending
	keys      []string // per λ edge: its encoding's key (bindKey) …
	subs      [][]int  // … and the columns its atom is bound into, in order
	spanLabel string   // Label, plus " order=…" on a leapfrog node
}

// planNode computes the physical node of the completed tree's node n under
// the given parent (nil at the root), priced under model (nil: no estimate),
// rejecting a node that has no table: an empty λ, or a χ variable outside
// var(λ). ID, Depth and Children are the caller's to set.
func (e *Evaluator) planNode(n, parent *decomp.Node, model *decomp.CostModel) (Node, error) {
	lam := n.Lambda.Elems()
	if len(lam) == 0 {
		return Node{}, fmt.Errorf("hdeval: decomposition node %s has an empty λ", e.label(n.Chi, n.Lambda))
	}
	if !n.Chi.SubsetOf(e.h.Vars(n.Lambda)) {
		return Node{}, fmt.Errorf("hdeval: decomposition node %s has χ variables outside var(λ)", e.label(n.Chi, n.Lambda))
	}
	keep := n.Chi.Intersect(bitset.FromSlice(e.head))
	if parent != nil {
		keep.UnionInPlace(n.Chi.Intersect(parent.Chi))
	}
	for _, c := range n.Children {
		keep.UnionInPlace(n.Chi.Intersect(c.Chi))
	}
	order, nChi := varOrder(e.h, n, parent)
	p := Node{Chi: n.Chi, Lambda: n.Lambda, Weights: n.Weights, Order: order, Kernel: "leapfrog", lam: lam}
	if len(lam) == 1 {
		// parent-shared variables lead and are kept, so this stable pass
		// leaves them in front; a root has none and leads with its head
		// variables instead, whose runs the answer walk deduplicates one
		// by one when the root keeps a variable the head drops
		// (yannakakis.NewAnswers)
		rank := func(v int) int {
			switch {
			case parent == nil && slices.Contains(e.head, v):
				return 0
			case keep.Has(v):
				return 1
			}
			return 2
		}
		chi := order[:nChi]
		sort.SliceStable(chi, func(i, j int) bool { return rank(chi[i]) < rank(chi[j]) })
		p.Kernel, p.NOut = "scan", keep.Len()
	} else {
		for i, v := range order[:nChi] {
			if keep.Has(v) {
				p.NOut = i + 1
			}
		}
	}
	for _, e2 := range lam {
		sub := order[:p.NOut] // a scan binds its one relation into its kept columns
		if len(lam) > 1 {
			sub = relation.SubOrder(order, yannakakis.AtomVars(e.Q, e.edgeToAtom[e2]))
		}
		p.subs, p.keys = append(p.subs, sub), append(p.keys, bindKey(e.Q, e.edgeToAtom[e2], sub))
	}
	if model != nil {
		p.EstRows = decomp.NodeCost(&decomp.Node{Chi: bitset.FromSlice(order[:p.NOut]), Lambda: n.Lambda, Weights: n.Weights}, model)
	}
	return p, nil
}

// varOrder returns the order in which node n of a decomposition of h binds
// its variables under the given parent (nil at the root), and the length of
// its χ prefix. Output (χ) variables come first, so results stream out
// sorted and distinct and the kernel projects by truncation; node tables are
// sets keyed by variable and the head projection fixes the final column
// order, so any order is answer-neutral.
//
// A scan (one λ edge) lists the variables shared with the parent first
// (ascending), the rest after: reordering a cached scan costs nothing, and
// it exposes the variables a parent row looks its run up by as a sorted
// column prefix. planNode then moves the rest of keep(n) up behind them —
// at the root, the head variables first.
//
// A join (several λ edges) orders χ by connectivity, because the order is
// what the leapfrog kernel pays for: binding two variables no λ edge
// relates enumerates their product before a later variable can intersect
// it away. Next is always the χ variable held by the most λ edges that
// already contain a bound variable — it extends the partial join rather
// than starting a new factor — ties to the one held by more λ edges (the
// first pick is thus a variable of maximum λ-degree: a join variable, where
// there is one), then to one shared with the parent, then to the smaller
// id. On a child χ{X1,X2,X4} λ{r1(X1,X2), r4(X4,X1)} of χ{X2,X3,X4} that is
// X1,X2,X4 — r·degree key visits — where parent-first X2,X4,X1 visits every
// (X2,X4) pair; the cursor and the Boolean descent then meet a non-prefix
// key, which they re-key by permuting the child's columns
// (Columnar.Reorder).
//
// Both continue with the existential variables of var(λ) ∖ χ by descending
// total fractional cover weight (weight 1 per covering edge on integral
// nodes; most-covered, hence most selective to intersect, first), ties
// toward the smaller id.
func varOrder(h *hypergraph.Hypergraph, n, parent *decomp.Node) (order []int, nChi int) {
	lam := n.Lambda.Elems()
	shared := func(v int) bool { return parent != nil && parent.Chi.Has(v) }
	chi := n.Chi.Elems()
	if len(lam) == 1 {
		sort.SliceStable(chi, func(i, j int) bool { return shared(chi[i]) && !shared(chi[j]) })
	} else {
		var bound bitset.Set
		// rank: λ edges holding v that already hold a bound variable, λ
		// edges holding v, shared with the parent, smaller id — compared in
		// that order, larger is earlier
		rank := func(v int) [4]int {
			r := [4]int{3: -v}
			for _, e := range lam {
				if h.Edge(e).Has(v) {
					r[1]++
					if h.Edge(e).Intersects(bound) {
						r[0]++
					}
				}
			}
			if shared(v) {
				r[2] = 1
			}
			return r
		}
		for i := range chi {
			best, bestRank := i, rank(chi[i])
			for j := i + 1; j < len(chi); j++ {
				if r := rank(chi[j]); slices.Compare(r[:], bestRank[:]) > 0 {
					best, bestRank = j, r
				}
			}
			chi[i], chi[best] = chi[best], chi[i]
			bound.Add(chi[i])
		}
	}
	exist := h.Vars(n.Lambda).Diff(n.Chi).Elems()
	if len(exist) > 1 {
		weight := map[int]float64{}
		for _, e := range lam {
			w := 1.0
			if n.Weights != nil {
				w = n.Weights[e]
			}
			h.Edge(e).ForEach(func(v int) { weight[v] += w })
		}
		sort.SliceStable(exist, func(i, j int) bool { return weight[exist[i]] > weight[exist[j]] })
	}
	return append(chi, exist...), len(chi)
}

// agmCapHint is the leapfrog output pre-size for node n: the AGM bound
// Π |R_e|^w_e (r^fhw) priced with the actual bound-table cardinalities, used
// only when the node carries fractional cover weights (an integral product
// of full relation sizes over-allocates wildly). The hint is clamped to the
// smallest λ relation — a selective bag's table is far below its AGM bound,
// and append grows past the hint where it is not; it sizes a buffer, it does
// not limit results.
func agmCapHint(n *Node, cols []*relation.Columnar) int {
	if n.Weights == nil {
		return 0
	}
	bound, smallest := 1.0, cols[0].Rows()
	for i, e2 := range n.lam {
		bound *= math.Pow(max(float64(cols[i].Rows()), 1), n.Weights[e2])
		smallest = min(smallest, cols[i].Rows())
	}
	if bound > float64(smallest) {
		return smallest
	}
	return int(bound)
}

// bindKey renders the key of atom ai's encoding bound into the columns of
// order (relation.Database.Encoded): the bracketed order, then the atom's
// arguments — variables by number, constants quoted by name, so a constant
// spelled like a variable or holding "," keys apart. Nothing in it depends
// on the plan, so plans over one database share the entry.
func bindKey(q *cq.Query, ai int, order []int) string {
	key := fmt.Sprint(order)
	for _, t := range q.Atoms[ai].Args {
		if v, _ := q.VarIndex(t.Name); t.IsVar {
			key += "," + strconv.Itoa(v)
		} else {
			key += "," + strconv.Quote(t.Name)
		}
	}
	return key
}

// encoded returns the i-th λ relation of n in Columnar form under n's
// variable order. While its relation stands unchanged each key is bound
// once (relation.BindColumnar), across bags, plans and executions over the
// database that caches it; a hit touches neither the relation nor the
// atom. An atom that selects nothing is bound to no rows without a scan or
// the cache, so made-up constants add no entry. Under a traced context each
// fetch is one SpanBind labelled with the relation and hit, miss or empty.
func (b *rootBuilder) encoded(n *Node, i int) (*relation.Columnar, error) {
	sp := b.tr.StartSpan(obs.SpanBind)
	e2, ai := n.lam[i], b.e.edgeToAtom[n.lam[i]]
	var enc *relation.Columnar
	outcome := " empty"
	if selectsNothing(b.db, b.e.Q.Atoms[ai]) {
		enc = relation.NewSortedColumnar(n.subs[i], nil)
	} else {
		var hit bool
		var err error
		enc, hit, err = b.db.Encoded(b.e.Q.Atoms[ai].Pred, n.keys[i], func() (*relation.Columnar, error) {
			return yannakakis.BindAtomColumnar(b.db, b.e.Q, ai, n.subs[i])
		})
		if err != nil {
			return nil, err
		}
		outcome = " miss"
		if hit {
			outcome = " hit"
		}
	}
	if sp != nil {
		sp.SetLabel(b.e.h.EdgeName(e2) + outcome)
		sp.SetRows(enc.Rows())
		sp.End()
	}
	return enc, nil
}

// selectsNothing reports whether atom selects no row of db unseen: its
// relation is absent, or a constant is missing from the dictionary. An
// arity mismatch is left to the bind, which reports it.
func selectsNothing(db *relation.Database, atom cq.Atom) bool {
	r := db.Relation(atom.Pred)
	if r == nil {
		return true
	}
	for _, t := range atom.Args {
		if !t.IsVar && r.Arity == len(atom.Args) {
			if _, ok := db.Lookup(t.Name); !ok {
				return true
			}
		}
	}
	return false
}

// materialize computes node n's table. A scan node's table is its one
// relation's cached encoding as it stands — no join, no re-encode, no
// row-major copy. Any other node fetches its λ encodings, runs the multiway
// intersection over the node's precomputed variable order, which emits the
// sorted, already-distinct kept prefix as the node table's columns; the join
// polls the builder's context, so a request deadline interrupts it. Under a
// traced context the fetches record as SpanBind and the join as one
// SpanNode carrying the join count and the actual vs estimated cardinality.
func (b *rootBuilder) materialize(n *Node) (*yannakakis.Node, error) {
	cols := make([]*relation.Columnar, len(n.lam))
	for i := range n.lam {
		var err error
		if cols[i], err = b.encoded(n, i); err != nil {
			return nil, err
		}
	}
	sp := b.tr.StartSpan(obs.SpanNode)
	out := &yannakakis.Node{Enc: cols[0]}
	if len(cols) > 1 {
		var err error
		out.Enc, err = relation.LeapfrogJoinColumnar(b.ctx, cols, n.Order, n.NOut, agmCapHint(n, cols))
		if err != nil {
			return nil, err
		}
		sp.AddSteps(int64(len(cols) - 1))
	}
	if sp != nil {
		b.e.Nodes() // renders the labels on the first traced execution
		sp.SetKernel(n.Kernel)
		sp.SetNode(n.ID)
		sp.SetLabel(n.spanLabel) // a leapfrog node's label carries its order
		sp.SetEst(n.EstRows)
		sp.SetRows(out.Rows())
		sp.End()
	}
	return out, nil
}
