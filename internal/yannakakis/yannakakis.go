// Package yannakakis implements Yannakakis' evaluation algorithm for acyclic
// queries on join trees (VLDB 1981), as used throughout Section 4.2 of the
// paper: the Boolean variant as a first-witness descent over the node
// tables (exists.go), the full reducer (upward + downward passes), and
// output-polynomial enumeration of non-Boolean answers as a cursor that
// counts instead of reducing (enumerate.go). The trees it works on are
// built by hdeval.Evaluator — a join tree being the width-1 case — and
// carry columnar node tables.
package yannakakis

import (
	"context"
	"slices"

	"hypertree/internal/cq"
	"hypertree/internal/obs"
	"hypertree/internal/relation"
)

// Node is a join-tree node carrying the materialised table of its atom (or,
// for hypertree evaluation, of its λ-join projected to χ) in columnar form,
// rows sorted: the reducer's semijoins run as merges over the sorted
// columns (see relation.MergeSemijoin), and the Boolean descent and the
// answer cursor read them as tries.
type Node struct {
	Enc      *relation.Columnar
	Children []*Node
}

// Rows returns the node table's cardinality.
func (n *Node) Rows() int { return n.Enc.Rows() }

// Vars returns the node table's variables in column order.
func (n *Node) Vars() []int { return n.Enc.Vars }

// Clear empties the node table (a false ground atom empties the root).
func (n *Node) Clear() {
	n.Enc = relation.NewColumnar(relation.NewTable(n.Vars()), n.Vars())
}

// atomBinding resolves body atom ai of q against db: its relation (an
// absent one is empty with the atom's arity) and the relation.Bind
// arguments — variables become columns (with repeated variables as equality
// selections) and constants become constant selections.
func atomBinding(db *relation.Database, q *cq.Query, ai int) (*relation.Relation, []relation.Arg) {
	atom := q.Atoms[ai]
	rel := db.Relation(atom.Pred)
	if rel == nil {
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
	return rel, args
}

// BindAtom materialises body atom ai of q against db as a row-major table
// over its distinct variables in order of first occurrence.
func BindAtom(db *relation.Database, q *cq.Query, ai int) (*relation.Table, error) {
	rel, args := atomBinding(db, q, ai)
	return relation.Bind(rel, args)
}

// BindAtomColumnar materialises body atom ai of q against db straight into
// sorted columns over order — variables of the atom, each once (see
// relation.BindColumnar).
func BindAtomColumnar(db *relation.Database, q *cq.Query, ai int, order []int) (*relation.Columnar, error) {
	rel, args := atomBinding(db, q, ai)
	return relation.BindColumnar(rel, args, order)
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

// pass is one direction of the sequential reducer and its span.
type pass struct {
	ctx context.Context
	sp  *obs.Span
}

// semijoin replaces dst's rows with dst ⋉ src as a merge over sorted
// columns, whatever the two column orders.
func semijoin(dst, src *Node, sp *obs.Span) {
	dst.Enc = relation.MergeSemijoin(dst.Enc, src.Enc)
	sp.AddSteps(1)
}

func (p *pass) up(n *Node) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := p.up(c); err != nil {
			return err
		}
		semijoin(n, c, p.sp)
	}
	return nil
}

func (p *pass) down(n *Node) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	for _, c := range n.Children {
		semijoin(c, n, p.sp)
		if err := p.down(c); err != nil {
			return err
		}
	}
	return nil
}

// endPass publishes a reducer pass span, Rows carrying the root cardinality.
func endPass(sp *obs.Span, root *Node) {
	sp.SetRows(root.Rows())
	sp.End()
}

// Reduce runs the full reducer in place: an upward semijoin pass followed by
// a downward pass. Afterwards every table is globally consistent: each
// remaining row participates in at least one answer. Neither the answer
// cursor (NewAnswers) nor the Boolean descent (Exists) needs a pass — their
// counts and memos say which rows a reduction would keep — so no execution
// runs Reduce: it is the reference both are held to. Cancellation is polled
// between semijoins: on error the tree is left partially reduced (still a
// superset of the consistent state). Under a traced context the passes
// record as SpanSemijoinUp and SpanSemijoinDown, each counting its
// semijoins, Rows carrying the root (resp. fully reduced root) cardinality.
func Reduce(ctx context.Context, root *Node) error {
	tr := obs.FromContext(ctx)
	up := pass{ctx: ctx, sp: tr.StartSpan(obs.SpanSemijoinUp)}
	if err := up.up(root); err != nil {
		return err
	}
	endPass(up.sp, root)
	down := pass{ctx: ctx, sp: tr.StartSpan(obs.SpanSemijoinDown)}
	if err := down.down(root); err != nil {
		return err
	}
	endPass(down.sp, root)
	return nil
}
