package cq

import (
	"strconv"
	"strings"
)

// CanonicalForm returns a syntactic canonical key for q, suitable for plan
// caching: two queries that differ only in variable names map to the same
// key. Variables are replaced by their intern indices, which are determined
// by first occurrence (body atoms in order, then the head), so the form is
// exactly as discriminating as the variable-ID semantics of the query.
//
// Constants are written as Go-quoted strings, so no constant name — however
// many commas, quotes or parentheses it holds — can read as the end of its
// argument or the start of another.
//
// Atom order is deliberately significant. A cached Plan answers with tables
// whose Vars are the compiled query's variable IDs; two queries assign the
// same IDs to the same positions only when their atoms line up, so a
// reorder-invariant key would hand callers tables keyed by another query's
// variables. Reordering therefore compiles (and caches) separately.
func CanonicalForm(q *Query) string {
	canon := func(name string) string {
		i, ok := q.VarIndex(name)
		if !ok {
			return "?" + name
		}
		return "v" + itoa(i)
	}
	var b strings.Builder
	if q.Head != nil {
		b.WriteString(renderAtom(*q.Head, canon))
	} else {
		b.WriteString("ans()")
	}
	b.WriteString(":-")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(renderAtom(a, canon))
	}
	return b.String()
}

func renderAtom(a Atom, canon func(string) string) string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if t.IsVar {
			b.WriteString(canon(t.Name))
		} else {
			b.WriteString(strconv.Quote(t.Name))
		}
	}
	b.WriteByte(')')
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
