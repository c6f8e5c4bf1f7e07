package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Table is a set of rows over query variables: Vars lists the distinct
// variable ids (column order), rows are stored flat. A table with no
// variables is Boolean: it holds either zero rows (false) or one empty row
// (true).
type Table struct {
	Vars []int
	data []Value
	rows int
}

// NewTable returns an empty table over the given variables.
func NewTable(vars []int) *Table {
	return &Table{Vars: append([]int(nil), vars...)}
}

// NewTableOf returns the table over vars (at least one) holding the given
// row-major data, which it takes ownership of. Rows are taken as given: the
// caller guarantees they are distinct.
func NewTableOf(vars []int, data []Value) *Table {
	t := NewTable(vars)
	t.data, t.rows = data, len(data)/len(vars)
	return t
}

// TrueTable returns the Boolean table holding the empty row.
func TrueTable() *Table {
	t := NewTable(nil)
	t.addRow(nil)
	return t
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Empty reports whether the table has no rows.
func (t *Table) Empty() bool { return t.rows == 0 }

// Row returns the i-th row (not to be mutated).
func (t *Table) Row(i int) []Value {
	w := len(t.Vars)
	return t.data[i*w : (i+1)*w]
}

func (t *Table) addRow(row []Value) {
	t.data = append(t.data, row...)
	t.rows++
}

// col returns the column index of variable v, or -1.
func (t *Table) col(v int) int {
	for i, x := range t.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// Bind materialises an atom over a base relation as a table: args maps each
// relation column to either a variable id (IsVar) or a constant value.
// Repeated variables become equality selections; constants become constant
// selections; the result's columns are the distinct variables in order of
// first occurrence.
type Arg struct {
	IsVar bool
	Var   int
	Const Value
}

// BindVar returns an Arg selecting variable v.
func BindVar(v int) Arg { return Arg{IsVar: true, Var: v} }

// BindConst returns an Arg requiring the constant c.
func BindConst(c Value) Arg { return Arg{Const: c} }

// Bind evaluates the atom r(args...) into a table.
func Bind(r *Relation, args []Arg) (*Table, error) {
	if len(args) != r.Arity {
		return nil, fmt.Errorf("relation: atom over %s has %d args, relation has arity %d", r.Name, len(args), r.Arity)
	}
	var vars []int
	firstCol := map[int]int{}
	for i, a := range args {
		if a.IsVar {
			if _, seen := firstCol[a.Var]; !seen {
				firstCol[a.Var] = i
				vars = append(vars, a.Var)
			}
		}
	}
	out := NewTable(vars)
	row := make([]Value, len(vars))
	for i := 0; i < r.Rows(); i++ {
		tup := r.Row(i)
		ok := true
		for j, a := range args {
			if a.IsVar {
				if tup[firstCol[a.Var]] != tup[j] {
					ok = false
					break
				}
			} else if tup[j] != a.Const {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, v := range vars {
			row[j] = tup[firstCol[v]]
		}
		out.addRow(row)
	}
	out.dedup()
	return out, nil
}

func (t *Table) dedup() {
	if t.rows <= 1 {
		return
	}
	seen := make(map[string]bool, t.rows)
	w := len(t.Vars)
	out := t.data[:0]
	kept := 0
	// One reused key buffer: the map lookup on string(buf) does not allocate;
	// only first-seen rows pay a key allocation on insert.
	buf := make([]byte, 0, w*4)
	for i := 0; i < t.rows; i++ {
		row := t.data[i*w : (i+1)*w]
		buf = appendVals(buf[:0], row)
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out = append(out, row...)
		kept++
	}
	t.data = out
	t.rows = kept
}

// Project returns the projection of t onto vars (which must be a subset of
// t.Vars), with duplicate rows removed.
func (t *Table) Project(vars []int) *Table {
	cols := make([]int, len(vars))
	for i, v := range vars {
		c := t.col(v)
		if c < 0 {
			panic(fmt.Sprintf("relation: projection variable %d not in table %v", v, t.Vars))
		}
		cols[i] = c
	}
	out := NewTable(vars)
	row := make([]Value, len(vars))
	seen := make(map[string]bool, t.rows)
	for i := 0; i < t.rows; i++ {
		src := t.Row(i)
		for j, c := range cols {
			row[j] = src[c]
		}
		k := encode(row)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.addRow(row)
	}
	return out
}

// sharedVars returns the variables common to t and u, with their column
// positions in each.
func sharedVars(t, u *Table) (vars []int, tc, uc []int) {
	for i, v := range t.Vars {
		if j := u.col(v); j >= 0 {
			vars = append(vars, v)
			tc = append(tc, i)
			uc = append(uc, j)
		}
	}
	return
}

func keyOf(row []Value, cols []int, buf []Value) string {
	buf = buf[:0]
	for _, c := range cols {
		buf = append(buf, row[c])
	}
	return encode(buf)
}

// Join returns the natural join t ⋈ u. The result's columns are t's
// variables followed by u's variables that are not in t.
func (t *Table) Join(u *Table) *Table {
	_, tc, uc := sharedVars(t, u)
	var extraCols []int
	var vars []int
	vars = append(vars, t.Vars...)
	for j, v := range u.Vars {
		if t.col(v) < 0 {
			vars = append(vars, v)
			extraCols = append(extraCols, j)
		}
	}
	out := NewTable(vars)
	index := make(map[string][]int, u.rows)
	buf := make([]Value, len(uc))
	for i := 0; i < u.rows; i++ {
		k := keyOf(u.Row(i), uc, buf)
		index[k] = append(index[k], i)
	}
	row := make([]Value, len(vars))
	for i := 0; i < t.rows; i++ {
		trow := t.Row(i)
		for _, j := range index[keyOf(trow, tc, buf)] {
			urow := u.Row(j)
			copy(row, trow)
			for x, c := range extraCols {
				row[len(t.Vars)+x] = urow[c]
			}
			out.addRow(row)
		}
	}
	return out
}

// Equal reports whether t and u hold the same set of rows over the same
// variable set (possibly in different column orders).
func (t *Table) Equal(u *Table) bool {
	if len(t.Vars) != len(u.Vars) || t.rows != u.rows {
		return false
	}
	perm := make([]int, len(t.Vars))
	for i, v := range t.Vars {
		j := u.col(v)
		if j < 0 {
			return false
		}
		perm[i] = j
	}
	set := make(map[string]bool, t.rows)
	buf := make([]Value, len(t.Vars))
	for i := 0; i < t.rows; i++ {
		set[encode(t.Row(i))] = true
	}
	for i := 0; i < u.rows; i++ {
		urow := u.Row(i)
		for c, j := range perm {
			buf[c] = urow[j]
		}
		if !set[encode(buf)] {
			return false
		}
	}
	return true
}

// StringWith renders the table with variable names from namer and constant
// names from db, sorted, for tests and tools.
func (t *Table) StringWith(db *Database, varName func(int) string) string {
	header := make([]string, len(t.Vars))
	for i, v := range t.Vars {
		header[i] = varName(v)
	}
	var rows []string
	for i := 0; i < t.rows; i++ {
		parts := make([]string, len(t.Vars))
		for j, v := range t.Row(i) {
			parts[j] = db.ValueName(v)
		}
		rows = append(rows, strings.Join(parts, ","))
	}
	sort.Strings(rows)
	return "(" + strings.Join(header, ",") + ")\n" + strings.Join(rows, "\n")
}

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	out := NewTable(t.Vars)
	out.data = append([]Value(nil), t.data...)
	out.rows = t.rows
	return out
}
