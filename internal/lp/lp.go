// Package lp is a small, self-contained linear-programming solver: a dense
// two-phase simplex over float64 with Bland's anti-cycling rule and
// epsilon-guarded pivoting. It exists to price fractional edge covers — the
// LPs behind fractional hypertree width (Fischl, Gottlob & Pichler,
// "General and Fractional Hypertree Decompositions: Hard and Easy Cases")
// have one variable per hyperedge and one constraint per bag vertex, so
// they are tiny and dense, and a textbook tableau simplex is both the
// simplest and the fastest tool for the job. The solver is nevertheless
// general: minimise any linear objective over ≤ / ≥ / = constraints with
// non-negative variables.
//
// Termination is guaranteed structurally (Bland's rule never cycles), and
// two guards bound the work anyway: the context is observed between
// pivots, and the Step hook lets a caller charge pivots against a budget
// (the decomposition searches' decomp.Budget).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Typed failures of Solve.
var (
	// ErrInfeasible reports that no point satisfies every constraint.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded reports that the objective decreases without bound over
	// the feasible region.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrPivotBudget reports that the Step hook cut the solve off before it
	// reached an optimum.
	ErrPivotBudget = errors.New("lp: pivot budget exhausted")
)

// Op is a constraint relation.
type Op int

// The three constraint relations.
const (
	// LE constrains coeffs·x ≤ rhs.
	LE Op = iota
	// GE constrains coeffs·x ≥ rhs.
	GE
	// EQ constrains coeffs·x = rhs.
	EQ
)

// String names the relation.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// eps is the pivot/reduced-cost tolerance; feasEps is the looser tolerance
// deciding phase-1 feasibility and solution reporting. Dense covering LPs
// over unit coefficients are numerically tame, so fixed guards suffice
// (an exact-rational pivoter would be the alternative for hostile inputs).
const (
	eps     = 1e-9
	feasEps = 1e-7
)

// A Problem is a linear program in the form
//
//	minimise    c · x
//	subject to  A x {≤,≥,=} b,   x ≥ 0.
//
// Build it with Minimize and Constrain, then call Solve. A Problem is not
// safe for concurrent use; Solve does not mutate it, so a solved Problem
// may be re-solved (e.g. under a fresh context).
type Problem struct {
	c    []float64
	rows [][]float64
	ops  []Op
	rhs  []float64

	// Step, if non-nil, is consulted before every pivot; returning false
	// aborts the solve with ErrPivotBudget. It is the hook for charging
	// pivots against a caller-wide step budget.
	Step func() bool
}

// Minimize starts a problem minimising c · x over x ≥ 0.
func Minimize(c ...float64) *Problem {
	return &Problem{c: append([]float64(nil), c...)}
}

// Constrain adds the constraint coeffs · x (op) rhs. Missing trailing
// coefficients are zero; extra ones panic.
func (p *Problem) Constrain(op Op, rhs float64, coeffs ...float64) {
	if len(coeffs) > len(p.c) {
		panic(fmt.Sprintf("lp: constraint over %d variables, objective has %d", len(coeffs), len(p.c)))
	}
	row := make([]float64, len(p.c))
	copy(row, coeffs)
	p.rows = append(p.rows, row)
	p.ops = append(p.ops, op)
	p.rhs = append(p.rhs, rhs)
}

// Solution is an optimal point of a Problem.
type Solution struct {
	// X is the optimal assignment to the problem's variables.
	X []float64
	// Objective is c · X.
	Objective float64
	// Pivots is the number of simplex pivots spent across both phases.
	Pivots int
}

// tableau is the working state of the two-phase simplex: the constraint
// matrix extended with slack/surplus/artificial columns, kept in canonical
// form with respect to basis.
type tableau struct {
	t       [][]float64 // m rows × (cols+1); last column is the rhs
	cols    int
	basis   []int  // basis[i] = variable index of row i
	allowed []bool // columns permitted to enter the basis
	pivots  int
	step    func() bool
}

// Solve runs the two-phase simplex and returns an optimum, ErrInfeasible,
// ErrUnbounded, ErrPivotBudget, or ctx.Err(). The empty problem (no
// variables) solves trivially.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, m := len(p.c), len(p.rows)

	// Column layout: [0,n) problem variables, then one slack or surplus per
	// inequality, then one artificial per ≥/= row (after rhs normalisation).
	type rowKind struct {
		sign float64 // +1 slack, -1 surplus, 0 none
		art  bool
	}
	kinds := make([]rowKind, m)
	normRows := make([][]float64, m)
	normRHS := make([]float64, m)
	slackCount, artCount := 0, 0
	for i := 0; i < m; i++ {
		row := append([]float64(nil), p.rows[i]...)
		b := p.rhs[i]
		op := p.ops[i]
		if b < 0 { // normalise to b ≥ 0, flipping the relation
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		normRows[i], normRHS[i] = row, b
		switch op {
		case LE:
			kinds[i] = rowKind{sign: 1}
			slackCount++
		case GE:
			kinds[i] = rowKind{sign: -1, art: true}
			slackCount++
			artCount++
		case EQ:
			kinds[i] = rowKind{art: true}
			artCount++
		}
	}
	cols := n + slackCount + artCount
	artStart := n + slackCount

	tb := &tableau{
		t:       make([][]float64, m),
		cols:    cols,
		basis:   make([]int, m),
		allowed: make([]bool, cols),
		step:    p.Step,
	}
	for j := 0; j < cols; j++ {
		tb.allowed[j] = true
	}
	slackAt, artAt := n, artStart
	for i := 0; i < m; i++ {
		row := make([]float64, cols+1)
		copy(row, normRows[i])
		row[cols] = normRHS[i]
		if kinds[i].sign != 0 {
			row[slackAt] = kinds[i].sign
			if kinds[i].sign > 0 {
				tb.basis[i] = slackAt // slack starts basic
			}
			slackAt++
		}
		if kinds[i].art {
			row[artAt] = 1
			tb.basis[i] = artAt // artificial starts basic
			artAt++
		}
		tb.t[i] = row
	}

	// Phase 1: minimise the sum of artificials.
	if artCount > 0 {
		phase1 := make([]float64, cols)
		for j := artStart; j < cols; j++ {
			phase1[j] = 1
		}
		if err := tb.optimize(ctx, phase1); err != nil {
			if errors.Is(err, ErrUnbounded) {
				// the phase-1 objective is bounded below by 0; an unbounded
				// verdict can only be numerical noise
				return nil, fmt.Errorf("lp: internal error: phase 1 unbounded")
			}
			return nil, err
		}
		if v := tb.objective(phase1); v > feasEps {
			return nil, ErrInfeasible
		}
		// Drive surviving artificials out of the basis where possible; rows
		// where every real column is zero are redundant constraints and keep
		// a degenerate artificial at value 0, which is harmless once the
		// artificial columns are barred from re-entering.
		for i := 0; i < m; i++ {
			if tb.basis[i] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(tb.t[i][j]) > eps {
					tb.pivot(i, j)
					break
				}
			}
		}
		for j := artStart; j < cols; j++ {
			tb.allowed[j] = false
		}
	}

	// Phase 2: minimise the real objective.
	phase2 := make([]float64, cols)
	copy(phase2, p.c)
	if err := tb.optimize(ctx, phase2); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	for i, b := range tb.basis {
		if b < n {
			x[b] = tb.t[i][cols]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		if math.Abs(x[j]) < feasEps {
			x[j] = 0
		}
		obj += p.c[j] * x[j]
	}
	return &Solution{X: x, Objective: obj, Pivots: tb.pivots}, nil
}

// objective evaluates the cost vector at the current basic solution.
func (tb *tableau) objective(cost []float64) float64 {
	v := 0.0
	for i, b := range tb.basis {
		v += cost[b] * tb.t[i][tb.cols]
	}
	return v
}

// optimize runs simplex iterations under Bland's rule until the cost vector
// has no negative reduced cost (optimal), a column with negative reduced
// cost has no positive entry (unbounded), or a guard trips.
func (tb *tableau) optimize(ctx context.Context, cost []float64) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Reduced cost r_j = c_j − c_B · column_j, recomputed from scratch:
		// the tableaux here are tiny and the recomputation sidesteps the
		// drift an incrementally-updated objective row accumulates.
		enter := -1
		for j := 0; j < tb.cols && enter < 0; j++ {
			if !tb.allowed[j] {
				continue
			}
			r := cost[j]
			for i, b := range tb.basis {
				if c := cost[b]; c != 0 {
					r -= c * tb.t[i][j]
				}
			}
			if r < -eps {
				enter = j // Bland: lowest-index improving column
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Ratio test; ties broken by the lowest leaving basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := range tb.t {
			a := tb.t[i][enter]
			if a <= eps {
				continue
			}
			ratio := tb.t[i][tb.cols] / a
			if ratio < best-eps || (ratio < best+eps && (leave < 0 || tb.basis[i] < tb.basis[leave])) {
				best, leave = ratio, i
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		if tb.step != nil && !tb.step() {
			return ErrPivotBudget
		}
		tb.pivot(leave, enter)
	}
}

// pivot brings column enter into the basis at row leave, restoring the
// canonical form.
func (tb *tableau) pivot(leave, enter int) {
	tb.pivots++
	row := tb.t[leave]
	piv := row[enter]
	for j := range row {
		row[j] /= piv
	}
	row[enter] = 1 // exact, against rounding
	for i, other := range tb.t {
		if i == leave {
			continue
		}
		f := other[enter]
		if f == 0 {
			continue
		}
		for j := range other {
			other[j] -= f * row[j]
		}
		other[enter] = 0
	}
	tb.basis[leave] = enter
}
