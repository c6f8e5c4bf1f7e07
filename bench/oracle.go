package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"hypertree"
)

// An expect is the reference answer of one query on one database snapshot,
// computed by the naive strategy (join every atom, no decomposition) on the
// bench's own copy of the database.
type expect struct {
	boolean  bool     // the query has no head variables
	verdict  bool     // boolean queries: satisfiable
	rowCount int      // other queries: answer cardinality
	cols     []string // answer columns, as the template names its variables
	rows     map[string]struct{}
}

// rowKey joins one answer tuple into a set key.
func rowKey(vals []string) string { return strings.Join(vals, "\x00") }

// oracle evaluates src on db with StrategyNaive.
func oracle(db *hypertree.Database, src string) (*expect, error) {
	q, err := hypertree.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	plan, err := hypertree.Compile(q, hypertree.WithStrategy(hypertree.StrategyNaive))
	if err != nil {
		return nil, err
	}
	tab, err := plan.Execute(context.Background(), db)
	if err != nil {
		return nil, err
	}
	e := &expect{boolean: q.IsBoolean()}
	if e.boolean {
		e.verdict = !tab.Empty()
		return e, nil
	}
	e.rowCount = tab.Rows()
	for _, v := range tab.Vars {
		e.cols = append(e.cols, q.VarName(v))
	}
	e.rows = make(map[string]struct{}, e.rowCount)
	vals := make([]string, len(tab.Vars))
	for i := 0; i < e.rowCount; i++ {
		for j, v := range tab.Row(i) {
			vals[j] = db.ValueName(v)
		}
		e.rows[rowKey(vals)] = struct{}{}
	}
	return e, nil
}

// matches checks one reply against the reference: the verdict of a Boolean
// query; otherwise the full row count, and that every returned row — under
// the reply's own column order — is an answer. tvars is templateVars of the
// template the request renamed.
func (e *expect) matches(r *queryReply, tvars []string) error {
	if e.boolean {
		if r.Boolean == nil || *r.Boolean != e.verdict {
			return fmt.Errorf("verdict %v, want %v", r.Boolean, e.verdict)
		}
		return nil
	}
	if r.RowCount != e.rowCount {
		return fmt.Errorf("row_count %d, want %d", r.RowCount, e.rowCount)
	}
	if want := min(e.rowCount, requestMaxRows); len(r.Rows) != want {
		return fmt.Errorf("%d rows returned, want %d", len(r.Rows), want)
	}
	if len(r.Vars) != len(e.cols) {
		return fmt.Errorf("%d columns, want %d", len(r.Vars), len(e.cols))
	}
	// perm[j] is the reply column holding reference column j.
	perm := make([]int, len(e.cols))
	for j := range perm {
		perm[j] = -1
	}
	for i, name := range r.Vars {
		k := strings.LastIndexByte(name, '_')
		id, err := strconv.Atoi(name[k+1:])
		if k < 0 || err != nil || id >= len(tvars) {
			return fmt.Errorf("unexpected column name %q", name)
		}
		for j, c := range e.cols {
			if c == tvars[id] {
				perm[j] = i
			}
		}
	}
	vals := make([]string, len(perm))
	for _, row := range r.Rows {
		for j, i := range perm {
			if i < 0 || i >= len(row) {
				return fmt.Errorf("reply columns %v do not cover %v", r.Vars, e.cols)
			}
			vals[j] = row[i]
		}
		if _, ok := e.rows[rowKey(vals)]; !ok {
			return fmt.Errorf("row %v is not an answer", row)
		}
	}
	return nil
}

// validatePlan checks a compiled plan's decomposition against the validator
// of its mode: Definition 4.1 for exact plans, conditions 1–3 for generalized
// ones, the fractional cover conditions for fractional ones. A plan without a
// decomposition must be the acyclic strategy on an acyclic query.
func validatePlan(p *hypertree.Plan) error {
	d := p.Decomposition()
	switch {
	case d == nil:
		if p.Strategy() != hypertree.StrategyAcyclic || !hypertree.IsAcyclic(p.Query()) {
			return fmt.Errorf("%s has no decomposition", p)
		}
		return nil
	case p.Fractional():
		return hypertree.ValidateFHD(d)
	case p.Generalized():
		return hypertree.ValidateGHD(d)
	default:
		return hypertree.ValidateHD(d)
	}
}
