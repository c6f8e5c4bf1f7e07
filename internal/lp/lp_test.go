package lp

import (
	"context"
	"errors"
	"math"
	"testing"
)

func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleBounds(t *testing.T) {
	// min x + y  s.t. x + y ≥ 1 → 1
	p := Minimize(1, 1)
	p.Constrain(GE, 1, 1, 1)
	s := solve(t, p)
	if !approx(s.Objective, 1) {
		t.Fatalf("objective %v, want 1", s.Objective)
	}

	// min 2x + 3y  s.t. x + y ≥ 4, x ≤ 1 → x=1, y=3, obj 11
	p = Minimize(2, 3)
	p.Constrain(GE, 4, 1, 1)
	p.Constrain(LE, 1, 1)
	s = solve(t, p)
	if !approx(s.Objective, 11) || !approx(s.X[0], 1) || !approx(s.X[1], 3) {
		t.Fatalf("got x=%v obj=%v, want x=[1 3] obj=11", s.X, s.Objective)
	}
}

func TestEquality(t *testing.T) {
	// min x + 2y  s.t. x + y = 3, x ≤ 2 → x=2, y=1, obj 4
	p := Minimize(1, 2)
	p.Constrain(EQ, 3, 1, 1)
	p.Constrain(LE, 2, 1)
	s := solve(t, p)
	if !approx(s.Objective, 4) || !approx(s.X[0], 2) || !approx(s.X[1], 1) {
		t.Fatalf("got x=%v obj=%v, want x=[2 1] obj=4", s.X, s.Objective)
	}
}

func TestNegativeRHSNormalisation(t *testing.T) {
	// -x ≤ -2 is x ≥ 2; min x → 2
	p := Minimize(1)
	p.Constrain(LE, -2, -1)
	s := solve(t, p)
	if !approx(s.Objective, 2) {
		t.Fatalf("objective %v, want 2", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2
	p := Minimize(1)
	p.Constrain(LE, 1, 1)
	p.Constrain(GE, 2, 1)
	if _, err := p.Solve(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// x + y = 1 over non-negative x, y with x + y ≥ 3
	p = Minimize(1, 1)
	p.Constrain(EQ, 1, 1, 1)
	p.Constrain(GE, 3, 1, 1)
	if _, err := p.Solve(context.Background()); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x, x ≥ 0 unconstrained above
	p := Minimize(-1)
	p.Constrain(GE, 0, 1)
	if _, err := p.Solve(context.Background()); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

// The LP behind fhw: a minimum fractional edge cover. On the vertex set of
// K5 covered by its 10 binary edges the optimum is 5/2 (weight 1/4 per
// edge), strictly below the integral cover number 3.
func TestFractionalCoverK5(t *testing.T) {
	const n = 5
	type edge struct{ a, b int }
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j})
		}
	}
	c := make([]float64, len(edges))
	for i := range c {
		c[i] = 1
	}
	p := Minimize(c...)
	for v := 0; v < n; v++ {
		row := make([]float64, len(edges))
		for e, ed := range edges {
			if ed.a == v || ed.b == v {
				row[e] = 1
			}
		}
		p.Constrain(GE, 1, row...)
	}
	s := solve(t, p)
	if !approx(s.Objective, 2.5) {
		t.Fatalf("fractional cover of K5 = %v, want 2.5", s.Objective)
	}
	total := 0.0
	for _, x := range s.X {
		if x < 0 {
			t.Fatalf("negative weight %v", x)
		}
		total += x
	}
	if !approx(total, 2.5) {
		t.Fatalf("weights sum to %v", total)
	}
}

// The fractional cover of a triangle's vertex set by its three edges is 3/2.
func TestFractionalCoverTriangle(t *testing.T) {
	p := Minimize(1, 1, 1)
	p.Constrain(GE, 1, 1, 1, 0) // vertex 0 ∈ e0, e1
	p.Constrain(GE, 1, 1, 0, 1) // vertex 1 ∈ e0, e2
	p.Constrain(GE, 1, 0, 1, 1) // vertex 2 ∈ e1, e2
	s := solve(t, p)
	if !approx(s.Objective, 1.5) {
		t.Fatalf("fractional cover of C3 = %v, want 1.5", s.Objective)
	}
}

// Beale's classic cycling instance: Dantzig's rule cycles forever on it,
// Bland's rule must terminate at the optimum -1/20.
func TestBealeCyclingTerminates(t *testing.T) {
	p := Minimize(-0.75, 150, -0.02, 6)
	p.Constrain(LE, 0, 0.25, -60, -1.0/25, 9)
	p.Constrain(LE, 0, 0.5, -90, -1.0/50, 3)
	p.Constrain(LE, 1, 0, 0, 1, 0)
	pivots := 0
	p.Step = func() bool { pivots++; return pivots <= 10_000 } // safety net: a cycle would spin here forever
	s := solve(t, p)
	if !approx(s.Objective, -0.05) {
		t.Fatalf("objective %v, want -0.05", s.Objective)
	}
}

func TestDegenerateAndRedundantRows(t *testing.T) {
	// A redundant equality (duplicate row) leaves an artificial basic at
	// zero; the solve must still reach the optimum.
	p := Minimize(1, 1)
	p.Constrain(EQ, 2, 1, 1)
	p.Constrain(EQ, 2, 1, 1)
	p.Constrain(GE, 1, 1)
	s := solve(t, p)
	if !approx(s.Objective, 2) || !approx(s.X[0]+s.X[1], 2) || s.X[0] < 1-1e-6 {
		t.Fatalf("got x=%v obj=%v", s.X, s.Objective)
	}
}

func TestEmptyAndTrivialProblems(t *testing.T) {
	s := solve(t, Minimize()) // no variables at all
	if len(s.X) != 0 || s.Objective != 0 {
		t.Fatalf("empty problem: %+v", s)
	}
	p := Minimize(3) // no constraints: x = 0 is optimal for c ≥ 0
	s = solve(t, p)
	if !approx(s.Objective, 0) {
		t.Fatalf("objective %v, want 0", s.Objective)
	}
}

func TestContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Minimize(1)
	p.Constrain(GE, 1, 1)
	if _, err := p.Solve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPivotBudget(t *testing.T) {
	p := Minimize(2, 3)
	p.Constrain(GE, 4, 1, 1)
	p.Constrain(LE, 1, 1)
	// The Step hook must bite, and a generous budget must not.
	steps := 0
	p.Step = func() bool { steps++; return steps <= 1 }
	if _, err := p.Solve(context.Background()); !errors.Is(err, ErrPivotBudget) {
		t.Fatalf("err = %v, want ErrPivotBudget via Step", err)
	}
	p.Step = func() bool { return true }
	if _, err := p.Solve(context.Background()); err != nil {
		t.Fatalf("unlimited Step: %v", err)
	}
}

// Re-solving the same Problem must give the same answer (Solve must not
// mutate the problem).
func TestResolve(t *testing.T) {
	p := Minimize(1, 2)
	p.Constrain(EQ, 3, 1, 1)
	p.Constrain(LE, 2, 1)
	a := solve(t, p)
	b := solve(t, p)
	if !approx(a.Objective, b.Objective) {
		t.Fatalf("re-solve drifted: %v vs %v", a.Objective, b.Objective)
	}
}
