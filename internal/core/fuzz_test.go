package core

import (
	"errors"
	"math"
	"testing"
)

// largeEnergyProblem plans at ≈ 6.3e7 J, where one ulp of Ê (7.45e-9 J)
// exceeds the default ξ = 1e-9: Algorithm 1's iterates settle by iteration
// 8, yet the change in Ê between them never falls below ξ.
func largeEnergyProblem() Problem {
	return Problem{
		Bound:   BoundConstants{A0: 397, A1: 0.01, A2: 5.6e-4},
		Energy:  EnergyParams{B0: 0.1185, B1: 130.68},
		Epsilon: 0.0044444444444444548,
		Servers: 129,
	}
}

func TestSolveConvergesAtLargeEnergy(t *testing.T) {
	p := largeEnergyProblem()
	plan, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	grid, err := SolveGrid(p, 3000)
	if err != nil {
		t.Fatalf("SolveGrid: %v", err)
	}
	if plan.K != 6 || plan.E != 3 || plan.T != 79826 || plan.K != grid.K || plan.E != grid.E || plan.T != grid.T {
		t.Errorf("plan (%d, %d, %d), grid (%d, %d, %d), want (6, 3, 79826) from both",
			plan.K, plan.E, plan.T, grid.K, grid.E, grid.T)
	}
}

// overflowProblem's T* is ≈ 1e23 rounds at every feasible (K, E), past
// int's range: ε sits 1e-12 above the A1/K floor of its single server.
func overflowProblem() Problem {
	p := DefaultProblem()
	p.Bound.A0 = 1e9
	p.Servers = 1
	p.Epsilon = p.Bound.A1 * (1 + 1e-12)
	return p
}

func TestPlanRefusesRoundsPastIntRange(t *testing.T) {
	p := overflowProblem()
	if plan, err := Solve(p, DefaultPlannerConfig()); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve = (%d, %d, %d) T* %g, %v; want ErrInfeasible", plan.K, plan.E, plan.T, plan.ContinuousT, err)
	}
	if plan, err := SolveGrid(p, 300); !errors.Is(err, ErrInfeasible) {
		t.Errorf("SolveGrid = (%d, %d, %d) T* %g, %v; want ErrInfeasible", plan.K, plan.E, plan.T, plan.ContinuousT, err)
	}
}

// FuzzPlan drives Algorithm 1 over arbitrary constants (A0, A1, A2, B0, B1,
// ε, N). A problem that fails Validate is refused with an error. A valid
// one whose constants lie in [1e-9, 1e9] (A2 may also be 0) either reports
// ErrInfeasible or returns a plan with 1 ≤ K ≤ N, E ≥ 1, T ≥ 1 and finite,
// positive joules and T = ⌈T*(K, E)⌉; where the plan's E is at most 300, it is no cheaper
// than the exhaustive grid over E ≤ 300 can be. Outside that range Ê
// underflows to 0 or overflows to +Inf, which no plan can price.
func FuzzPlan(f *testing.F) {
	def := DefaultProblem()
	add := func(p Problem) {
		f.Add(p.Bound.A0, p.Bound.A1, p.Bound.A2, p.Energy.B0, p.Energy.B1, p.Epsilon, uint8(p.Servers))
	}
	add(def)
	add(largeEnergyProblem())
	one := def
	one.Servers = 1
	add(one)
	infeasible := def
	infeasible.Epsilon = def.Bound.A1 / float64(def.Servers) / 2
	add(infeasible)
	add(overflowProblem())
	f.Fuzz(func(t *testing.T, a0, a1, a2, b0, b1, eps float64, n uint8) {
		p := Problem{
			Bound:   BoundConstants{A0: a0, A1: a1, A2: a2},
			Energy:  EnergyParams{B0: b0, B1: b1},
			Epsilon: eps,
			Servers: int(n),
		}
		plan, err := Solve(p, DefaultPlannerConfig())
		if verr := p.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("%+v fails Validate (%v) but planned %+v", p, verr, plan)
			}
			return
		}
		in := func(v float64) bool { return v >= 1e-9 && v <= 1e9 }
		if !in(a0) || !in(a1) || !(a2 == 0 || in(a2)) || !in(b0) || !in(b1) || !in(eps) {
			return
		}
		if errors.Is(err, ErrInfeasible) {
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if plan.K < 1 || plan.K > p.Servers || plan.E < 1 || plan.T < 1 {
			t.Fatalf("%+v: plan (%d, %d, %d) outside the box", p, plan.K, plan.E, plan.T)
		}
		if j := plan.PredictedJoules; !(j > 0) || math.IsInf(j, 1) {
			t.Fatalf("%+v: plan joules %v", p, j)
		}
		if tStar, err := p.TStar(float64(plan.K), float64(plan.E)); err != nil || float64(plan.T) != math.Ceil(tStar) {
			t.Fatalf("%+v: plan T = %d at (%d, %d), T* %v (%v)", p, plan.T, plan.K, plan.E, tStar, err)
		}
		if plan.E > 300 {
			return
		}
		grid, err := SolveGrid(p, 300)
		if err != nil {
			t.Fatalf("%+v: grid: %v", p, err)
		}
		if plan.PredictedJoules < grid.PredictedJoules*(1-1e-12) {
			t.Fatalf("%+v: plan %v J below the grid's %v J", p, plan.PredictedJoules, grid.PredictedJoules)
		}
	})
}
