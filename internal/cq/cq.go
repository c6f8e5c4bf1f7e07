// Package cq implements conjunctive queries in the rule-based representation
// of the paper (Section 2.1): a query is a rule
//
//	ans(u) :- r1(u1), ..., rn(un).
//
// whose body atoms carry variables and constants. The package provides a
// parser for this syntax, the query → hypergraph translation H(Q), and the
// canonical query cq(H) of a hypergraph (Appendix A).
package cq

import (
	"fmt"
	"slices"
	"strings"
	"unicode"

	"hypertree/internal/bitset"
	"hypertree/internal/hypergraph"
)

// Term is a variable or a constant appearing as an atom argument.
type Term struct {
	Name  string
	IsVar bool
}

// Var returns a variable term.
func Var(name string) Term { return Term{Name: name, IsVar: true} }

// Const returns a constant term.
func Const(name string) Term { return Term{Name: name} }

// String returns the term as it appears in a query.
func (t Term) String() string { return t.Name }

// Atom is a predicate applied to terms. Within a Query, atoms are identified
// by their position in Atoms (two syntactically equal atoms are distinct
// vertices of a decomposition).
type Atom struct {
	Pred string
	Args []Term
}

// String renders the atom as pred(arg1, ..., argn) in re-parseable form:
// constants that Parse would not read back as the same constant are quoted.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.render()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// render returns the term as parseable source. Variables print bare (the
// parser only produces variable names it reads back as variables), as do
// constants that re-parse as the same constant; every other constant is
// quoted. A constant containing '"' cannot be rendered parseably (the
// parser's string literals have no escapes) — such names never come out of
// Parse, only out of hand-built Terms.
func (t Term) render() string {
	if t.IsVar || constIdent(t.Name) {
		return t.Name
	}
	return `"` + t.Name + `"`
}

// constIdent reports whether Parse reads name back as exactly this constant:
// a non-empty identifier — byte-wise letters, digits, '_' and non-leading
// apostrophes, mirroring parser.ident — whose first character is neither
// upper-case nor '_' (those parse as variables).
func constIdent(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		r := rune(name[i])
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || (r == '\'' && i > 0) {
			continue
		}
		return false
	}
	r := rune(name[0])
	return !unicode.IsUpper(r) && r != '_'
}

// Query is a conjunctive query. Head is nil for a Boolean query with omitted
// head, or a head atom otherwise; a Boolean query is one whose head has no
// variables.
type Query struct {
	Head  *Atom
	Atoms []Atom

	varNames []string
	varIndex map[string]int
}

// NewQuery builds a query from a head (may be nil) and body atoms, indexing
// the variables in order of first occurrence in the body, then the head.
func NewQuery(head *Atom, body []Atom) *Query {
	q := &Query{Head: head, Atoms: body, varIndex: map[string]int{}}
	for _, a := range body {
		for _, t := range a.Args {
			if t.IsVar {
				q.internVar(t.Name)
			}
		}
	}
	if head != nil {
		for _, t := range head.Args {
			if t.IsVar {
				q.internVar(t.Name)
			}
		}
	}
	return q
}

func (q *Query) internVar(name string) int {
	if i, ok := q.varIndex[name]; ok {
		return i
	}
	i := len(q.varNames)
	q.varNames = append(q.varNames, name)
	q.varIndex[name] = i
	return i
}

// NumVars returns the number of distinct variables of the query.
func (q *Query) NumVars() int { return len(q.varNames) }

// VarName returns the name of variable v.
func (q *Query) VarName(v int) string { return q.varNames[v] }

// VarIndex returns the index of the named variable.
func (q *Query) VarIndex(name string) (int, bool) {
	i, ok := q.varIndex[name]
	return i, ok
}

// VarsOf returns var(A) for body atom i as a variable set.
func (q *Query) VarsOf(i int) bitset.Set {
	var s bitset.Set
	for _, t := range q.Atoms[i].Args {
		if t.IsVar {
			s.Add(q.varIndex[t.Name])
		}
	}
	return s
}

// HeadVars returns the variable set of the head (empty for Boolean queries).
func (q *Query) HeadVars() bitset.Set {
	var s bitset.Set
	if q.Head != nil {
		for _, t := range q.Head.Args {
			if t.IsVar {
				s.Add(q.varIndex[t.Name])
			}
		}
	}
	return s
}

// IsBoolean reports whether the query is Boolean (variable-free head).
func (q *Query) IsBoolean() bool { return q.Head == nil || q.HeadVars().Empty() }

// AtomLabel returns a display label for body atom i: the predicate name,
// disambiguated with #i when the predicate occurs more than once.
func (q *Query) AtomLabel(i int) string {
	count := 0
	for _, a := range q.Atoms {
		if a.Pred == q.Atoms[i].Pred {
			count++
		}
	}
	if count == 1 {
		return q.Atoms[i].Pred
	}
	return fmt.Sprintf("%s#%d", q.Atoms[i].Pred, i)
}

// Hypergraph returns H(Q): one vertex per variable (same indices as the
// query's variables) and one edge var(A) per body atom with at least one
// variable. The returned mapping gives, for each hypergraph edge, the index
// of the corresponding body atom (ground atoms are skipped).
func (q *Query) Hypergraph() (*hypergraph.Hypergraph, []int) {
	h := hypergraph.New()
	for _, name := range q.varNames {
		h.AddVertex(name)
	}
	edgeToAtom := q.EdgeAtoms()
	for _, i := range edgeToAtom {
		h.AddEdgeSet(q.AtomLabel(i), q.VarsOf(i))
	}
	return h, edgeToAtom
}

// EdgeAtoms returns, for each edge of H(Q) in order, the index of its body
// atom: the atoms with at least one variable — the mapping Hypergraph
// returns, for callers that already hold the hypergraph.
func (q *Query) EdgeAtoms() []int {
	var edgeToAtom []int
	for i, a := range q.Atoms {
		if slices.ContainsFunc(a.Args, func(t Term) bool { return t.IsVar }) {
			edgeToAtom = append(edgeToAtom, i)
		}
	}
	return edgeToAtom
}

// String renders the query as a re-parseable rule. A nil head prints as
// "ans()" — the propositional head Parse accepts — so String ∘ Parse is the
// identity on canonical forms (pinned by FuzzParseQuery).
func (q *Query) String() string {
	var b strings.Builder
	if q.Head != nil {
		b.WriteString(q.Head.String())
	} else {
		b.WriteString("ans()")
	}
	b.WriteString(" :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte('.')
	return b.String()
}

// CanonicalQuery returns the canonical query cq(H) of a hypergraph
// (Definition A.2): one atom per edge whose arguments are the edge's
// vertices in lexicographic name order; the head is propositional.
func CanonicalQuery(h *hypergraph.Hypergraph) *Query {
	body := make([]Atom, 0, h.NumEdges())
	for e := 0; e < h.NumEdges(); e++ {
		names := h.VertexNames(h.Edge(e))
		args := make([]Term, len(names))
		for i, n := range names {
			args[i] = Var(n)
		}
		body = append(body, Atom{Pred: h.EdgeName(e), Args: args})
	}
	return NewQuery(nil, body)
}
