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

// dedup removes repeated rows in place, keeping each row's first
// occurrence in order.
func (t *Table) dedup() {
	if t.rows <= 1 {
		return
	}
	w := len(t.Vars)
	seen := newRowIndex(t.rows)
	out := t.data[:0]
	for i := 0; i < t.rows; i++ {
		out, _ = seen.add(out, w, t.data[i*w:(i+1)*w])
	}
	t.data = out
	t.rows = seen.n
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
	var seen rowIndex
	for i := 0; i < t.rows; i++ {
		src := t.Row(i)
		for j, c := range cols {
			row[j] = src[c]
		}
		out.data, _ = seen.add(out.data, len(vars), row)
	}
	out.rows = seen.n
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

// Join returns the natural join t ⋈ u. The result's columns are t's
// variables followed by u's variables that are not in t; its rows come in
// t's row order, each row's partners in u's row order.
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
	// u's rows by key: keys holds row i's key at row i, the index each
	// key's first row, next[i] the row after i with i's key (-1 after the
	// last). Inserting from the last row back leaves every chain ascending.
	kw := len(uc)
	keys := make([]Value, 0, u.rows*kw)
	for i := 0; i < u.rows; i++ {
		urow := u.Row(i)
		for _, c := range uc {
			keys = append(keys, urow[c])
		}
	}
	var index rowIndex
	next := make([]int32, u.rows)
	for i := u.rows - 1; i >= 0; i-- {
		slot, first := index.find(keys, kw, keys[i*kw:(i+1)*kw])
		if next[i] = int32(first); first >= 0 {
			index.slots[slot] = int32(i + 1)
		} else {
			index.insert(keys, kw, slot, i)
		}
	}
	key := make([]Value, kw)
	row := make([]Value, len(vars))
	for i := 0; i < t.rows; i++ {
		trow := t.Row(i)
		for j, c := range tc {
			key[j] = trow[c]
		}
		_, j := index.find(keys, kw, key)
		for ; j >= 0; j = int(next[j]) {
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
	w := len(t.Vars)
	set := newRowIndex(t.rows)
	for i := 0; i < t.rows; i++ {
		if slot, dup := set.find(t.data, w, t.Row(i)); dup < 0 {
			set.insert(t.data, w, slot, i)
		}
	}
	buf := make([]Value, w)
	for i := 0; i < u.rows; i++ {
		urow := u.Row(i)
		for c, j := range perm {
			buf[c] = urow[j]
		}
		if _, row := set.find(t.data, w, buf); row < 0 {
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
