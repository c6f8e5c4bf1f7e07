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
// decomposition completion (Lemma 4.4), the edge→atom mapping and the head
// variables are computed once, and the resulting skeleton can then be
// executed against any database, concurrently and under a context. A naive
// join baseline is provided for the evaluation experiments.
package hdeval

import (
	"context"
	"fmt"
	"slices"
	"sort"
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
// evaluation: a completed decomposition plus the query analysis needed to
// bind relations. An Evaluator is immutable after construction and safe for
// concurrent use by multiple goroutines (the setting of Theorem 4.7, where
// one decomposition is amortised across many databases).
type Evaluator struct {
	Q  *cq.Query
	HD *decomp.Decomposition // completed per Lemma 4.4

	edgeToAtom []int
	head       []int
	nodeID     map[*decomp.Node]int     // preorder index over the completed tree
	infos      []NodeInfo               // per-node identity/estimate, indexed by nodeID (see NodeInfos)
	labelOnce  sync.Once                // renders infos[i].Label/Order/Keep and spanLabels on first use
	spanLabels []string                 // per node: Label, plus " order=…" on a leapfrog node
	lfNodes    map[*decomp.Node]*lfNode // every node's columnar plan (see kernel.go)
	enc        encCache                 // plan-level Columnar encoding cache (interior mutability)
}

// NodeInfo identifies one node of the evaluator's completed decomposition
// tree for observability: traces reference nodes by ID, and EXPLAIN ANALYZE
// renders the tree from these records. IDs are preorder indices over the
// completed tree — the tree execution actually walks, which the completion
// (Lemma 4.4) may have extended beyond the decomposition the plan reports.
type NodeInfo struct {
	// ID is the node's preorder index; span Node fields carry it.
	ID int
	// Depth is the node's depth under the root (root = 0), for indenting.
	Depth int
	// Label renders the node's χ and λ ("χ{X,Y} λ{r,s}").
	Label string
	// EstRows is the planner's estimated cardinality of the node table
	// (0 when the plan carries no statistics).
	EstRows float64
	// Kernel is how the node table is materialised, which |λ| alone
	// decides: "scan" for one relation, "leapfrog" for several.
	Kernel string
	// Order is the variable order a leapfrog node's join binds in
	// ("X1,X2,X4": χ first, then the existential variables); empty on a
	// scan, whose order costs nothing. See VarOrder.
	Order string
	// Keep names the node table's columns ("{X1,X2}", "{}" when it keeps
	// none) when they are fewer than χ's; empty when the table holds all of
	// χ. See keep(p) in kernel.go.
	Keep string
}

// NodeInfos returns the completed tree's node records in preorder. The
// slice is shared and must not be mutated. Labels and orders are rendered
// on the first call — only explain reports and traced executions read them,
// and a compile that is never explained should not pay for the strings.
func (e *Evaluator) NodeInfos() []NodeInfo {
	e.labelOnce.Do(func() {
		e.spanLabels = make([]string, len(e.infos))
		for n, id := range e.nodeID {
			info := &e.infos[id]
			info.Label = e.nodeLabel(n)
			e.spanLabels[id] = info.Label
			lf := e.lfNodes[n]
			if len(lf.lam) > 1 {
				info.Order = OrderString(e.HD.H, lf.order)
				e.spanLabels[id] += " order=" + info.Order
			}
			if lf.nOut < n.Chi.Len() {
				info.Keep = "{" + OrderString(e.HD.H, lf.order[:lf.nOut]) + "}"
			}
		}
	})
	return e.infos
}

// OrderString renders a variable order by name ("X1,X2,X4").
func OrderString(h *hypergraph.Hypergraph, order []int) string {
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = h.VertexName(v)
	}
	return strings.Join(names, ",")
}

// nodeLabel renders n's χ and λ.
func (e *Evaluator) nodeLabel(n *decomp.Node) string {
	return fmt.Sprintf("χ{%s} λ{%s}",
		strings.Join(e.HD.H.VertexNames(n.Chi), ","),
		strings.Join(e.HD.H.EdgeNames(n.Lambda), ","))
}

// NewEvaluator analyses q and completes hd once, returning the reusable
// evaluation skeleton. The head variables are validated here, and so is
// every node of the completed tree — a node whose λ is empty, or whose χ
// reaches outside var(λ), has no table to materialise and is rejected by
// name — so execution can no longer fail on the plan's shape.
//
// model, when non-nil, is the compilation's cost model: every node of the
// completed tree is stamped with the decomp.NodeCost of the table it
// actually builds — χ narrowed to its kept columns, so a Boolean bag is
// priced at one row — and every node's children are reordered by ascending
// estimate, so the bottom-up count pass tries each row against its most
// selective child first and stops at the first that has no match. The
// reordering is answer-neutral — the children's counts multiply — so an
// Evaluator with statistics returns exactly the answers of one without; only
// the work to produce them, and the walk's row order, change.
func NewEvaluator(q *cq.Query, hd *decomp.Decomposition, model *decomp.CostModel) (*Evaluator, error) {
	if hd == nil || hd.H == nil || (hd.Root == nil && hd.H.NumEdges() > 0) {
		return nil, fmt.Errorf("hdeval: nil decomposition")
	}
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
	}
	complete := hd.Complete()
	nodes := complete.Nodes()
	e := &Evaluator{
		Q:          q,
		HD:         complete,
		edgeToAtom: q.EdgeAtoms(),
		head:       head,
		lfNodes:    make(map[*decomp.Node]*lfNode, len(nodes)),
		nodeID:     make(map[*decomp.Node]int, len(nodes)),
		infos:      make([]NodeInfo, 0, len(nodes)),
	}
	// plan computes n's columnar plan and prices the table it builds.
	plan := func(n, parent *decomp.Node) error {
		lf, err := e.lfPlanFor(n, parent)
		if err != nil {
			return err
		}
		e.lfNodes[n] = lf
		if model != nil {
			kept := &decomp.Node{Chi: bitset.FromSlice(lf.order[:lf.nOut]), Lambda: n.Lambda, Weights: n.Weights}
			n.EstRows = decomp.NodeCost(kept, model)
		}
		return nil
	}
	// Node identity for tracing is the preorder over the final
	// (post-reorder) tree, so span Node fields and EXPLAIN ANALYZE agree on
	// which node is which forever after.
	var index func(n *decomp.Node, depth int) error
	index = func(n *decomp.Node, depth int) error {
		for _, c := range n.Children {
			if err := plan(c, n); err != nil {
				return err
			}
		}
		if model != nil {
			sort.SliceStable(n.Children, func(i, j int) bool {
				return n.Children[i].EstRows < n.Children[j].EstRows
			})
		}
		e.nodeID[n] = len(e.infos)
		e.infos = append(e.infos, NodeInfo{
			ID:      len(e.infos),
			Depth:   depth,
			EstRows: n.EstRows,
			Kernel:  e.lfNodes[n].kernel(),
		})
		for _, c := range n.Children {
			if err := index(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if complete.Root != nil {
		if err := plan(complete.Root, nil); err != nil {
			return nil, err
		}
		if err := index(complete.Root, 0); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Head returns the validated head variables of the query.
func (e *Evaluator) Head() []int { return append([]int(nil), e.head...) }

// Root materialises the acyclic instance of Lemma 4.6 for db: one columnar
// table per decomposition node (the χ-projection of the λ-join), arranged
// along the decomposition tree. Ground atoms of the query (variable-free,
// hence absent from H(Q)) are evaluated separately and, if false, empty the
// root.
func (e *Evaluator) Root(ctx context.Context, db *relation.Database) (*yannakakis.Node, error) {
	return e.RootWorkers(ctx, db, 1)
}

// RootWorkers is Root with the per-node λ-join materialisations of
// independent subtrees running on up to workers goroutines — the node tables
// of Lemma 4.6 are mutually independent (each depends only on db), so the
// decomposition tree fans out embarrassingly. workers ≤ 1 is the sequential
// path.
func (e *Evaluator) RootWorkers(ctx context.Context, db *relation.Database, workers int) (*yannakakis.Node, error) {
	if e.HD.Root == nil { // no variable atoms: nothing to materialise
		return groundRoot(db, e.Q)
	}

	b := &rootBuilder{ctx: ctx, db: db, e: e, tr: obs.FromContext(ctx)}
	var root *yannakakis.Node
	var err error
	if workers <= 1 {
		root, err = b.buildSeq(e.HD.Root)
	} else {
		// The semaphore bounds concurrent table work only; goroutines waiting
		// on children hold no slot, so deep trees cannot deadlock (the same
		// discipline as yannakakis.Reduce).
		b.sem = make(chan struct{}, workers)
		root, err = b.buildPar(e.HD.Root)
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
// bound relations live in the evaluator's encoding cache (kernel.go).
type rootBuilder struct {
	ctx context.Context
	db  *relation.Database
	e   *Evaluator
	tr  *obs.Trace // nil when the context carries no trace
	sem chan struct{}
}

func (b *rootBuilder) buildSeq(n *decomp.Node) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
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

// buildPar materialises n's own table under a semaphore slot while its
// children build concurrently; the first error wins and the tree above it
// is abandoned (all goroutines are still joined before returning).
func (b *rootBuilder) buildPar(n *decomp.Node) (*yannakakis.Node, error) {
	if err := b.ctx.Err(); err != nil {
		return nil, err
	}
	children := make([]*yannakakis.Node, len(n.Children))
	errs := make([]error, len(n.Children))
	var wg sync.WaitGroup
	for i, c := range n.Children {
		wg.Add(1)
		go func(i int, c *decomp.Node) {
			defer wg.Done()
			children[i], errs[i] = b.buildPar(c)
		}(i, c)
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

// Boolean decides the query against db by the bottom-up semijoin pass.
// workers > 1 materialises the node tables on that many goroutines.
func (e *Evaluator) Boolean(ctx context.Context, db *relation.Database, workers int) (bool, error) {
	root, err := e.RootWorkers(ctx, db, workers)
	if err != nil {
		return false, err
	}
	return yannakakis.BooleanContext(ctx, root)
}

// Answers evaluates the query against db as a cursor over the answers
// (Theorem 4.8): node tables, one count pass, then a walk that costs per
// row returned. workers > 1 materialises the node tables on that many
// goroutines.
func (e *Evaluator) Answers(ctx context.Context, db *relation.Database, workers int) (*yannakakis.Answers, error) {
	root, err := e.RootWorkers(ctx, db, workers)
	if err != nil {
		return nil, err
	}
	return yannakakis.NewAnswers(ctx, root, e.head)
}

// NaiveJoin evaluates the query by joining all atom tables left to right
// with no decomposition — the baseline whose intermediate results can grow
// with r^|atoms| on cyclic queries.
func NaiveJoin(db *relation.Database, q *cq.Query) (*relation.Table, error) {
	return NaiveJoinContext(context.Background(), db, q)
}

// NaiveJoinContext is NaiveJoin with cancellation between joins.
func NaiveJoinContext(ctx context.Context, db *relation.Database, q *cq.Query) (*relation.Table, error) {
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
	head, err := HeadVars(q)
	if err != nil {
		return nil, err
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
