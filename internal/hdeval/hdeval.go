// Package hdeval evaluates conjunctive queries through hypertree
// decompositions, implementing the Lemma 4.6 transformation: given
// ⟨Q, DB, HD⟩ with HD of width k, each decomposition node p is materialised
// as the projection of the join of the relations in λ(p) — a table of size
// O(r^k) — and the decomposition tree becomes a join tree of an acyclic
// instance evaluated with Yannakakis' algorithm (Theorems 4.7, 4.8). The
// projection is onto the χ(p) variables the head or a neighbour reads, not
// all of χ(p) (keep(p), kernel.go).
//
// The Evaluator type is the compile-once form of the construction: the
// decomposition is completed (Lemma 4.4) and flattened once into the
// physical plan every execution and report reads (Node), and the plan can
// then be materialised against any database, concurrently and under a
// context, by Root — its one execution entry; yannakakis.NewAnswers runs
// the tree.
// A naive join baseline is provided for the evaluation experiments.
package hdeval

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hypertree/internal/bitset"
	"hypertree/internal/cq"
	"hypertree/internal/decomp"
	"hypertree/internal/hypergraph"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
	"hypertree/internal/yannakakis"
)

// Evaluator is the precomputed, database-independent part of the Lemma 4.6
// evaluation: the physical plan of a completed decomposition plus the query
// analysis needed to bind relations. An Evaluator is immutable after
// construction and safe for concurrent use by multiple goroutines (the
// setting of Theorem 4.7, where one decomposition is amortised across many
// databases).
type Evaluator struct {
	Q *cq.Query

	h          *hypergraph.Hypergraph
	edgeToAtom []int
	head       []int
	nodes      []Node    // the physical plan in preorder (see Nodes); empty without variable atoms
	labelOnce  sync.Once // renders the nodes' labels on first use
}

// Nodes returns the physical plan — the completed tree execution walks,
// which Lemma 4.4's completion may have extended beyond the decomposition a
// plan reports — in preorder. The slice is shared and must not be mutated.
// Labels are rendered on the first call: only reports and traced executions
// read them, and a compile that is never explained should not pay for the
// strings.
func (e *Evaluator) Nodes() []Node {
	e.labelOnce.Do(func() {
		for i := range e.nodes {
			n := &e.nodes[i]
			n.Label = e.label(n.Chi, n.Lambda)
			n.spanLabel = n.Label
			if n.Kernel == "leapfrog" {
				n.OrderNames = e.names(n.Order)
				n.spanLabel += " order=" + n.OrderNames
			}
			if n.NOut < n.Chi.Len() {
				n.Keep = "{" + e.names(n.Order[:n.NOut]) + "}"
			}
		}
	})
	return e.nodes
}

// names renders a variable order by name ("X1,X2,X4").
func (e *Evaluator) names(order []int) string {
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = e.h.VertexName(v)
	}
	return strings.Join(names, ",")
}

// label renders a node's χ and λ.
func (e *Evaluator) label(chi, lambda bitset.Set) string {
	return fmt.Sprintf("χ{%s} λ{%s}",
		strings.Join(e.h.VertexNames(chi), ","),
		strings.Join(e.h.EdgeNames(lambda), ","))
}

// NewEvaluator analyses q and flattens the completion of hd (Lemma 4.4)
// once into the physical plan (see Node). The head variables are validated
// here, and so is every node of the completed tree — a node whose λ is
// empty, or whose χ reaches outside var(λ), has no table to materialise and
// is rejected by name — so execution can no longer fail on the plan's shape.
// hd itself is only read.
//
// model, when non-nil, is the compilation's cost model: every physical node
// is priced at the decomp.NodeCost of the table it builds, and every node's
// children are ordered by ascending estimate, so the top-down count
// tries each row against its most selective child first and stops at the
// first that has no match. The ordering is answer-neutral — the children's
// counts multiply — so an Evaluator with statistics returns exactly the
// answers of one without; only the work to produce them, and the walk's row
// order, change.
func NewEvaluator(q *cq.Query, hd *decomp.Decomposition, model *decomp.CostModel) (*Evaluator, error) {
	if hd == nil || hd.H == nil || (hd.Root == nil && hd.H.NumEdges() > 0) {
		return nil, fmt.Errorf("hdeval: nil decomposition")
	}
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{Q: q, h: hd.H, edgeToAtom: q.EdgeAtoms(), head: head}
	if complete := hd.Complete(); complete.Root != nil {
		root, err := e.planNode(complete.Root, nil, model)
		if err != nil {
			return nil, err
		}
		if err := e.add(root, complete.Root, model, 0); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// add appends n, planned from the completed tree's node dn, at the next
// preorder index, then its subtrees: the children are planned first and
// visited by ascending estimate (a stable order, so without a model the
// decomposition's own order stands).
func (e *Evaluator) add(n Node, dn *decomp.Node, model *decomp.CostModel, depth int) error {
	n.ID, n.Depth = len(e.nodes), depth
	e.nodes = append(e.nodes, n)
	kids := make([]Node, len(dn.Children))
	byEst := make([]int, len(dn.Children))
	for i, c := range dn.Children {
		var err error
		if kids[i], err = e.planNode(c, dn, model); err != nil {
			return err
		}
		byEst[i] = i
	}
	slices.SortStableFunc(byEst, func(i, j int) int { return cmp.Compare(kids[i].EstRows, kids[j].EstRows) })
	children := make([]int, len(byEst))
	for k, i := range byEst {
		children[k] = len(e.nodes)
		if err := e.add(kids[i], dn.Children[i], model, depth+1); err != nil {
			return err
		}
	}
	e.nodes[n.ID].Children = children
	return nil
}

// Root materialises the acyclic instance of Lemma 4.6 for db: one columnar
// table per node of the physical plan (the projection of the λ-join onto
// the node's kept columns), arranged along its tree, for
// yannakakis.NewAnswers to count, walk or — with an empty head — decide.
// Ground atoms of the query (variable-free, hence absent from H(Q)) are
// evaluated separately and, if false, empty the root. The node tables are
// mutually independent (each depends only on db), so the λ-joins of
// independent subtrees run on up to workers goroutines; workers ≤ 1 is
// the sequential path.
func (e *Evaluator) Root(ctx context.Context, db *relation.Database, workers int) (*yannakakis.Node, error) {
	if len(e.nodes) == 0 { // no variable atoms: nothing to materialise
		return groundRoot(db, e.Q)
	}

	b := &rootBuilder{ctx: ctx, db: db, e: e, tr: obs.FromContext(ctx)}
	var root *yannakakis.Node
	var err error
	if workers <= 1 {
		root, err = b.buildSeq(0)
	} else {
		// The semaphore bounds concurrent table work only; goroutines waiting
		// on children hold no slot, so deep trees cannot deadlock.
		b.sem = make(chan struct{}, workers)
		root, err = b.buildPar(0)
	}
	if err != nil {
		return nil, err
	}
	return root, clearUnlessGroundAtomsHold(root, db, e.Q)
}

// groundRoot is the tree of a query without variable atoms: one 0-ary node
// holding the empty row iff every ground atom holds.
func groundRoot(db *relation.Database, q *cq.Query) (*yannakakis.Node, error) {
	root := &yannakakis.Node{Enc: relation.NewColumnar(relation.TrueTable(), nil)}
	return root, clearUnlessGroundAtomsHold(root, db, q)
}

// clearUnlessGroundAtomsHold empties the root table when a ground atom of q
// is false on db.
func clearUnlessGroundAtomsHold(root *yannakakis.Node, db *relation.Database, q *cq.Query) error {
	ok, err := yannakakis.GroundAtomsHold(db, q)
	if err == nil && !ok {
		root.Clear()
	}
	return err
}

// rootBuilder carries the shared state of one Root materialisation; the
// bound relations live in db's encoding cache (kernel.go).
type rootBuilder struct {
	ctx context.Context
	db  *relation.Database
	e   *Evaluator
	tr  *obs.Trace // nil when the context carries no trace
	sem chan struct{}
}

// buildSeq materialises node i's subtree, node by node in preorder.
func (b *rootBuilder) buildSeq(i int) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	n := &b.e.nodes[i]
	out, err := b.materialize(n)
	if err != nil {
		return nil, err
	}
	for _, c := range n.Children {
		cn, err := b.buildSeq(c)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, cn)
	}
	return out, nil
}

// buildPar materialises node i's own table under a semaphore slot while its
// children build concurrently; the first error wins and the tree above it
// is abandoned (all goroutines are still joined before returning).
func (b *rootBuilder) buildPar(i int) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	n := &b.e.nodes[i]
	children := make([]*yannakakis.Node, len(n.Children))
	errs := make([]error, len(n.Children))
	var wg sync.WaitGroup
	for k, c := range n.Children {
		wg.Add(1)
		go func(k, c int) {
			defer wg.Done()
			children[k], errs[k] = b.buildPar(c)
		}(k, c)
	}
	b.sem <- struct{}{}
	out, err := b.materialize(n)
	<-b.sem
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for _, cerr := range errs {
		if cerr != nil {
			return nil, cerr
		}
	}
	out.Children = children
	return out, nil
}

// NaiveJoin evaluates the query by joining all atom tables left to right
// with no decomposition — the baseline whose intermediate results can grow
// with r^|atoms| on cyclic queries.
func NaiveJoin(db *relation.Database, q *cq.Query) (*relation.Table, error) {
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	return NaiveJoinContext(context.Background(), db, q, head)
}

// NaiveJoinContext is NaiveJoin projected onto head (nil: the 0-ary table,
// true or false), with cancellation between joins.
func NaiveJoinContext(ctx context.Context, db *relation.Database, q *cq.Query, head []int) (*relation.Table, error) {
	ok, err := yannakakis.GroundAtomsHold(db, q)
	if err != nil {
		return nil, err
	}
	acc := relation.TrueTable()
	if !ok {
		acc = relation.NewTable(nil)
	}
	for i := range q.Atoms {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.VarsOf(i).Empty() {
			continue
		}
		t, err := yannakakis.BindAtom(db, q, i)
		if err != nil {
			return nil, err
		}
		acc = acc.Join(t)
	}
	return acc.Project(head), nil
}

// HeadVars returns the distinct head variables of q in head order,
// validating that each occurs in the body (safety).
func HeadVars(q *cq.Query) ([]int, error) {
	if q.Head == nil {
		return nil, nil
	}
	var body bitset.Set
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if v, ok := q.VarIndex(t.Name); t.IsVar && ok {
				body.Add(v)
			}
		}
	}
	var head []int
	for _, t := range q.Head.Args {
		if !t.IsVar {
			continue
		}
		v, ok := q.VarIndex(t.Name)
		if !ok || !body.Has(v) {
			return nil, fmt.Errorf("hdeval: head variable %s does not occur in the body", t.Name)
		}
		if !slices.Contains(head, v) {
			head = append(head, v)
		}
	}
	return head, nil
}
