// Package yannakakis implements Yannakakis' evaluation algorithm for acyclic
// queries on join trees (VLDB 1981), as used throughout Section 4.2 of the
// paper, as one memoised top-down descent over the node tables that counts
// instead of reducing (enumerate.go): with a head it is the count behind
// output-polynomial enumeration of the answers as a cursor, and with an
// empty head it is the Boolean variant, stopping at the first witness
// (NewAnswers with a nil head). The full reducer (upward + downward semijoin passes) runs on
// no request path; it is the test reference both are held to (reduceRef
// in this package's exists_test.go). The trees it works on are built by
// hdeval.Evaluator — a join tree being the width-1 case — and carry
// columnar node tables.
package yannakakis

import (
	"slices"

	"hypertree/internal/cq"
	"hypertree/internal/relation"
)

// Node is a join-tree node carrying the materialised table of its atom (or,
// for hypertree evaluation, of its λ-join projected to χ) in columnar form,
// rows sorted: the Boolean descent and the answer cursor read them as
// tries.
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
