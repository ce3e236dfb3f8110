package core

import (
	"errors"
	"math"
	"testing"
	"time"

	"eefei/internal/energy"
)

func TestSensitivityBasics(t *testing.T) {
	rows, err := Sensitivity(DefaultProblem(), 0.1)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	// 6 constants × 2 signs.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byName := map[string][]SensitivityRow{}
	for _, r := range rows {
		byName[r.Constant] = append(byName[r.Constant], r)
	}
	// A0 scales the objective linearly: elasticity ≈ 1 on both sides.
	for _, r := range byName["A0"] {
		if math.Abs(r.Elasticity-1) > 0.05 {
			t.Errorf("A0 elasticity = %v, want ≈1", r.Elasticity)
		}
	}
	// Epsilon up → cheaper training (negative elasticity).
	for _, r := range byName["Epsilon"] {
		if !math.IsNaN(r.Elasticity) && r.Elasticity >= 0 {
			t.Errorf("Epsilon elasticity = %v, want < 0", r.Elasticity)
		}
	}
	// B0/B1 raise energy when raised.
	for _, name := range []string{"B0", "B1"} {
		for _, r := range byName[name] {
			if !math.IsNaN(r.Elasticity) && r.Elasticity <= 0 {
				t.Errorf("%s elasticity = %v, want > 0", name, r.Elasticity)
			}
		}
	}
}

func TestSensitivityDeltaValidation(t *testing.T) {
	if _, err := Sensitivity(DefaultProblem(), 0); !errors.Is(err, ErrParams) {
		t.Errorf("delta 0 = %v, want ErrParams", err)
	}
	if _, err := Sensitivity(DefaultProblem(), 1.5); !errors.Is(err, ErrParams) {
		t.Errorf("delta 1.5 = %v, want ErrParams", err)
	}
}

func TestSensitivitySurvivesInfeasiblePerturbation(t *testing.T) {
	p := DefaultProblem()
	// Make ε barely feasible even at K=N, so ε×0.5 breaks the whole box.
	p.Epsilon = p.Bound.A1 / float64(p.Servers) * 1.3
	rows, err := Sensitivity(p, 0.5)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	sawNaN := false
	for _, r := range rows {
		if math.IsNaN(r.Joules) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Error("expected at least one infeasible perturbation row")
	}
}

func TestParetoFrontierProperties(t *testing.T) {
	p := DefaultProblem()
	tm := energy.DefaultPiTimeModel()
	frontier, err := ParetoFrontier(p, tm, 3000, 200)
	if err != nil {
		t.Fatalf("ParetoFrontier: %v", err)
	}
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Energy ascending, time strictly descending along the frontier.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].Joules < frontier[i-1].Joules {
			t.Fatalf("frontier not energy-sorted at %d", i)
		}
		if frontier[i].Elapsed >= frontier[i-1].Elapsed {
			t.Fatalf("frontier point %d does not improve time", i)
		}
	}
	// The energy-optimal plan's cost must equal the frontier's cheapest
	// point (same integer optimum).
	plan, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cheapest := frontier[0]
	planJ := p.EnergyForRounds(float64(plan.K), float64(plan.E), float64(plan.T))
	if cheapest.Joules > planJ*(1+1e-9) {
		t.Errorf("frontier cheapest %v J worse than planner %v J", cheapest.Joules, planJ)
	}
	// No frontier point is dominated by any other.
	for i, a := range frontier {
		for j, b := range frontier {
			if i == j {
				continue
			}
			if b.Joules <= a.Joules && b.Elapsed <= a.Elapsed &&
				(b.Joules < a.Joules || b.Elapsed < a.Elapsed) {
				t.Fatalf("frontier point %d dominated by %d", i, j)
			}
		}
	}
}

func TestParetoFrontierValidation(t *testing.T) {
	p := DefaultProblem()
	p.Epsilon = 0
	if _, err := ParetoFrontier(p, energy.DefaultPiTimeModel(), 100, 10); err == nil {
		t.Error("invalid problem must be rejected")
	}
	bad := energy.TimeModel{}
	if _, err := ParetoFrontier(DefaultProblem(), bad, 100, 10); err == nil {
		t.Error("invalid time model must be rejected")
	}
}

func TestParetoTimeEnergyTension(t *testing.T) {
	// The fastest frontier point must use more energy than the cheapest one
	// (otherwise there is no trade-off and the frontier would be a single
	// point).
	frontier, err := ParetoFrontier(DefaultProblem(), energy.DefaultPiTimeModel(), 3000, 200)
	if err != nil {
		t.Fatalf("ParetoFrontier: %v", err)
	}
	if len(frontier) < 2 {
		t.Skip("degenerate frontier")
	}
	first, last := frontier[0], frontier[len(frontier)-1]
	if !(last.Joules > first.Joules && last.Elapsed < first.Elapsed) {
		t.Errorf("no energy/time tension: %+v vs %+v", first, last)
	}
	_ = time.Nanosecond
}
