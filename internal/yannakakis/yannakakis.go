// Package yannakakis implements Yannakakis' evaluation algorithm for acyclic
// queries on join trees (VLDB 1981), as used throughout Section 4.2 of the
// paper: the Boolean variant (upward semijoin reduction), the full reducer
// (upward + downward passes), and output-polynomial enumeration of
// non-Boolean answers (enumerate.go). A level-parallel reducer exercises
// the paper's parallelizability claim for acyclic evaluation [GLS, JACM
// 2001]. The trees it works on are built by hdeval.Evaluator — a join tree
// being the width-1 case — and carry columnar node tables wherever the
// builder could supply them.
package yannakakis

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hypertree/internal/cq"
	"hypertree/internal/jointree"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// Node is a join-tree node carrying the materialised table of its atom (or,
// for hypertree evaluation, of its λ-join projected to χ), in columnar form,
// row-major form, or both.
type Node struct {
	// Table is the row-major form. It may be nil while Enc is set — columnar
	// node tables stay columnar from bind through reducer to enumeration —
	// and Materialize builds it for whoever still asks.
	Table    *relation.Table
	Children []*Node
	// Enc, when non-nil, is the columnar encoding of the node table (rows
	// sorted), and the form the full reducer and the enumerator work on:
	// semijoins run as merges over the sorted code blocks instead of hash
	// build+probe (see relation.MergeSemijoin). A hash semijoin on a node
	// that arrived row-major invalidates Enc whenever it drops rows.
	Enc *relation.Columnar
}

// Rows returns the node table's cardinality.
func (n *Node) Rows() int {
	if n.Enc != nil {
		return n.Enc.Rows()
	}
	return n.Table.Rows()
}

// Vars returns the node table's variables in column order.
func (n *Node) Vars() []int {
	if n.Enc != nil {
		return n.Enc.Vars
	}
	return n.Table.Vars
}

// Materialize returns the row-major form of the node table, decoding Enc on
// first use.
func (n *Node) Materialize() *relation.Table {
	if n.Table == nil {
		n.Table = n.Enc.Table()
	}
	return n.Table
}

// Clear empties the node table (a false ground atom empties the root).
func (n *Node) Clear() {
	n.Table, n.Enc = relation.NewTable(n.Vars()), nil
}

// DisableMergeSemijoin globally forces the full reducer onto the hash
// semijoin path even when both sides carry encodings — the differential
// tests and benchmarks use it to compare the two reducer kernels on
// identical trees.
var DisableMergeSemijoin atomic.Bool

// semijoinNode replaces dst's rows with dst ⋉ src: in the code domain when
// both sides carry an encoding (whatever their column orders), by the hash
// semijoin over the row-major forms otherwise. Reports whether the merge
// kernel ran. On the hash path dst's encoding survives only if no row was
// dropped (the encoding still describes the table exactly).
func semijoinNode(dst, src *Node) bool {
	if !DisableMergeSemijoin.Load() && dst.Enc != nil && src.Enc != nil {
		if out := relation.MergeSemijoin(dst.Enc, src.Enc); out != dst.Enc {
			dst.Enc, dst.Table = out, nil
		}
		return true
	}
	t := dst.Materialize()
	nt := t.Semijoin(src.Materialize())
	if nt.Rows() != t.Rows() {
		dst.Enc = nil
	}
	dst.Table = nt
	return false
}

// FromJoinTree binds each atom of an acyclic query to its relation, row-major,
// and arranges the tables along the join tree. Ground atoms (no variables)
// act as global filters: if any ground atom has an empty relation the whole
// query is false, which is represented by emptying the root table. Plans do
// not come through here — a join tree executes as a width-1 decomposition
// of hdeval.Evaluator, over cached encodings; this is the direct
// construction the tests and hdbench check that path against.
func FromJoinTree(db *relation.Database, q *cq.Query, jt *jointree.Tree) (*Node, error) {
	if jt == nil {
		return nil, fmt.Errorf("yannakakis: nil join tree")
	}
	_, edgeToAtom := q.Hypergraph()
	nodes := make([]*Node, len(edgeToAtom))
	for i, ai := range edgeToAtom {
		tab, err := BindAtom(db, q, ai)
		if err != nil {
			return nil, err
		}
		nodes[i] = &Node{Table: tab}
	}
	var root *Node
	for i, p := range jt.Parent {
		if p < 0 {
			root = nodes[i]
		} else {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		}
	}
	if root == nil {
		return nil, fmt.Errorf("yannakakis: join tree has no root")
	}
	groundTrue, err := GroundAtomsHold(db, q)
	if err != nil {
		return nil, err
	}
	if !groundTrue {
		root.Clear()
	}
	return root, nil
}

// BindAtom materialises body atom ai of q against db: variables become
// columns (with repeated variables as equality selections) and constants
// become constant selections.
func BindAtom(db *relation.Database, q *cq.Query, ai int) (*relation.Table, error) {
	atom := q.Atoms[ai]
	rel := db.Relation(atom.Pred)
	if rel == nil {
		// an absent relation is empty with the atom's arity
		rel = &relation.Relation{Name: atom.Pred, Arity: len(atom.Args)}
	}
	args := make([]relation.Arg, len(atom.Args))
	for i, t := range atom.Args {
		if t.IsVar {
			v, _ := q.VarIndex(t.Name)
			args[i] = relation.BindVar(v)
		} else {
			c, ok := db.Lookup(t.Name)
			if !ok {
				// unknown constant: empty selection, use an impossible value
				c = -1
			}
			args[i] = relation.BindConst(c)
		}
	}
	return relation.Bind(rel, args)
}

// AtomVars returns the column order of the table BindAtom produces for atom
// ai — its distinct variables by first occurrence, the convention of
// relation.Bind — without touching a database.
func AtomVars(q *cq.Query, ai int) []int {
	var vars []int
	for _, t := range q.Atoms[ai].Args {
		if v, _ := q.VarIndex(t.Name); t.IsVar && !slices.Contains(vars, v) {
			vars = append(vars, v)
		}
	}
	return vars
}

// GroundAtomsHold evaluates the variable-free atoms of q; a Boolean query
// whose ground atom is absent from the database is false regardless of the
// rest of the body.
func GroundAtomsHold(db *relation.Database, q *cq.Query) (bool, error) {
	for i := range q.Atoms {
		if !q.VarsOf(i).Empty() {
			continue
		}
		tab, err := BindAtom(db, q, i)
		if err != nil {
			return false, err
		}
		if tab.Empty() {
			return false, nil
		}
	}
	return true, nil
}

// Boolean decides the query by a single bottom-up semijoin pass: the query
// is true iff the root table is non-empty after reduction. This is the
// Boolean Yannakakis algorithm referenced in Section 1.1.
func Boolean(root *Node) bool {
	ok, _ := BooleanContext(context.Background(), root)
	return ok
}

// BooleanContext is Boolean with cancellation between semijoins. The pass
// reduces the tree in place. Under a traced context it is one
// SpanSemijoinUp counting semijoins, Rows carrying the reduced root
// cardinality.
func BooleanContext(ctx context.Context, root *Node) (bool, error) {
	p := pass{ctx: ctx, sp: obs.FromContext(ctx).StartSpan(obs.SpanSemijoinUp)}
	if err := p.up(root); err != nil {
		return false, err
	}
	p.end(root)
	return root.Rows() > 0, nil
}

// pass is one direction of the sequential reducer: its span, and how many
// of its semijoins ran the merge kernel.
type pass struct {
	ctx    context.Context
	sp     *obs.Span
	merges int
}

func (p *pass) semijoin(dst, src *Node) {
	if semijoinNode(dst, src) {
		p.merges++
	}
	p.sp.AddSteps(1)
}

func (p *pass) up(n *Node) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := p.up(c); err != nil {
			return err
		}
		p.semijoin(n, c)
	}
	return nil
}

func (p *pass) down(n *Node) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	for _, c := range n.Children {
		p.semijoin(c, n)
		if err := p.down(c); err != nil {
			return err
		}
	}
	return nil
}

func (p *pass) end(root *Node) { endPass(p.sp, root, int64(p.merges)) }

// endPass publishes a reducer pass span: Rows carries the root cardinality,
// the label how many semijoins ran the merge kernel.
func endPass(sp *obs.Span, root *Node, merges int64) {
	sp.SetRows(root.Rows())
	if merges > 0 {
		sp.SetLabel(fmt.Sprintf("merge=%d", merges))
	}
	sp.End()
}

// Reduce runs the full reducer in place: an upward semijoin pass followed by
// a downward pass. Afterwards every table is globally consistent: each
// remaining row participates in at least one answer. With workers > 1 the
// semijoins of independent subtrees run on that many goroutines (nodes at
// the same depth have disjoint parents' subtrees, so sibling subtrees reduce
// concurrently). Cancellation is polled between semijoins: on error the tree
// is left partially reduced (still a superset of the consistent state).
// Under a traced context the passes record as SpanSemijoinUp and
// SpanSemijoinDown, each counting its semijoins, Rows carrying the root
// (resp. fully reduced root) cardinality.
func Reduce(ctx context.Context, root *Node, workers int) error {
	if workers <= 1 {
		tr := obs.FromContext(ctx)
		up := pass{ctx: ctx, sp: tr.StartSpan(obs.SpanSemijoinUp)}
		if err := up.up(root); err != nil {
			return err
		}
		up.end(root)
		down := pass{ctx: ctx, sp: tr.StartSpan(obs.SpanSemijoinDown)}
		if err := down.down(root); err != nil {
			return err
		}
		down.end(root)
		return nil
	}
	// A watcher goroutine arms the halt flag, so the reduction itself only
	// pays an atomic load per node instead of a channel select.
	var halted atomic.Bool
	if done := ctx.Done(); done != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				halted.Store(true)
			case <-stopWatch:
			}
		}()
	}
	parallelReduce(ctx, root, workers, &halted)
	if halted.Load() {
		return ctx.Err()
	}
	return nil
}

func parallelReduce(ctx context.Context, root *Node, workers int, halted *atomic.Bool) {
	tr := obs.FromContext(ctx)
	// The semaphore bounds concurrent table work only; goroutines waiting on
	// children hold no slot, so deep trees cannot deadlock.
	sem := make(chan struct{}, workers)
	// The pass spans' step counters are bumped from every worker goroutine
	// (AddSteps is atomic); each pass Ends only after its recursion has
	// fully joined, so the counts are complete when the span publishes.
	upSp := tr.StartSpan(obs.SpanSemijoinUp)
	// Merge-kernel counts are bumped from worker goroutines; each pass reads
	// its counter only after the recursion joined.
	var merges atomic.Int64
	var up func(n *Node)
	up = func(n *Node) {
		var wg sync.WaitGroup
		for _, c := range n.Children {
			wg.Add(1)
			go func(c *Node) {
				defer wg.Done()
				up(c)
			}(c)
		}
		wg.Wait()
		if halted.Load() {
			return
		}
		sem <- struct{}{}
		for _, c := range n.Children {
			if semijoinNode(n, c) {
				merges.Add(1)
			}
			upSp.AddSteps(1)
		}
		<-sem
	}
	var downSp *obs.Span
	var down func(n *Node)
	down = func(n *Node) {
		if halted.Load() {
			return
		}
		sem <- struct{}{}
		for _, c := range n.Children {
			if semijoinNode(c, n) {
				merges.Add(1)
			}
			downSp.AddSteps(1)
		}
		<-sem
		var wg sync.WaitGroup
		for _, c := range n.Children {
			wg.Add(1)
			go func(c *Node) {
				defer wg.Done()
				down(c)
			}(c)
		}
		wg.Wait()
	}
	up(root)
	endPass(upSp, root, merges.Load())
	downSp = tr.StartSpan(obs.SpanSemijoinDown)
	merges.Store(0)
	down(root)
	endPass(downSp, root, merges.Load())
}
