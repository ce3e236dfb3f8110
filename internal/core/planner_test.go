package core

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/optim"
)

func TestSolveDefaultProblem(t *testing.T) {
	plan, err := Solve(DefaultProblem(), DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Paper Fig. 5: K* = 1 under IID shards.
	if plan.K != 1 {
		t.Errorf("K = %d, want 1", plan.K)
	}
	// Paper Fig. 6 region: E* in the tens.
	if plan.E < 20 || plan.E > 80 {
		t.Errorf("E = %d, want in [20,80]", plan.E)
	}
	if plan.T < 1 {
		t.Errorf("T = %d, want >= 1", plan.T)
	}
	if plan.Iterations < 1 {
		t.Error("ACS must iterate at least once")
	}
	// Headline: ≈49.8% saving versus (K=1, E=1).
	if s := plan.Savings(); math.Abs(s-0.498) > 0.03 {
		t.Errorf("savings = %.3f, want ≈0.498 (paper headline)", s)
	}
}

func TestSolveMatchesGridSearch(t *testing.T) {
	p := DefaultProblem()
	acs, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	grid, err := SolveGrid(p, int(p.EMax(1))+1)
	if err != nil {
		t.Fatalf("SolveGrid: %v", err)
	}
	// ACS on a biconvex problem with closed-form steps should find the
	// global integer optimum here (single basin).
	if acs.PredictedJoules > grid.PredictedJoules*(1+1e-6) {
		t.Errorf("ACS %v J worse than grid %v J (K,E)=(%d,%d) vs (%d,%d)",
			acs.PredictedJoules, grid.PredictedJoules, acs.K, acs.E, grid.K, grid.E)
	}
}

func TestSolveNumericAgreesWithClosedForm(t *testing.T) {
	p := DefaultProblem()
	closed, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	numeric, err := solveNumeric(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("solveNumeric: %v", err)
	}
	if closed.K != numeric.K {
		t.Errorf("K: closed %d vs numeric %d", closed.K, numeric.K)
	}
	if diff := math.Abs(float64(closed.E - numeric.E)); diff > 1 {
		t.Errorf("E: closed %d vs numeric %d", closed.E, numeric.E)
	}
	if rel := math.Abs(closed.PredictedJoules-numeric.PredictedJoules) / closed.PredictedJoules; rel > 1e-3 {
		t.Errorf("objective: closed %v vs numeric %v", closed.PredictedJoules, numeric.PredictedJoules)
	}
}

func TestSolveRespectsECap(t *testing.T) {
	p := DefaultProblem()
	p.Bound.A2 = 0 // unbounded E-slice
	cfg := DefaultPlannerConfig()
	cfg.ECap = 50
	plan, err := Solve(p, cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.E > 50 {
		t.Errorf("E = %d exceeded cap 50", plan.E)
	}
}

func TestSolveInvalidProblem(t *testing.T) {
	p := DefaultProblem()
	p.Epsilon = 0
	if _, err := Solve(p, DefaultPlannerConfig()); !errors.Is(err, ErrParams) {
		t.Errorf("invalid problem = %v, want ErrParams", err)
	}
}

func TestSolveInfeasibleInitialPoint(t *testing.T) {
	p := DefaultProblem()
	cfg := DefaultPlannerConfig()
	cfg.InitialK = 1
	cfg.InitialE = p.EMax(1) + 10 // outside the feasible strip
	if _, err := Solve(p, cfg); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible start = %v, want ErrInfeasible", err)
	}
}

func TestPlanSavingsEdgeCases(t *testing.T) {
	if !math.IsNaN((Plan{BaselineJoules: 0, PredictedJoules: 1}).Savings()) {
		t.Error("zero baseline must yield NaN savings")
	}
	s := (Plan{BaselineJoules: 10, PredictedJoules: 5}).Savings()
	if s != 0.5 {
		t.Errorf("Savings = %v, want 0.5", s)
	}
}

func TestIntegerPlanIsFeasible(t *testing.T) {
	p := DefaultProblem()
	plan, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !p.Feasible(float64(plan.K), float64(plan.E)) {
		t.Errorf("integer plan (K=%d,E=%d) infeasible", plan.K, plan.E)
	}
	// Scheduled T rounds must actually reach ε per the bound.
	gap := p.Bound.Gap(float64(plan.K), float64(plan.E), float64(plan.T))
	if gap > p.Epsilon*(1+1e-9) {
		t.Errorf("bound gap at integer plan = %v exceeds ε = %v", gap, p.Epsilon)
	}
}

func TestSolveGridValidation(t *testing.T) {
	p := DefaultProblem()
	p.Servers = 0
	if _, err := SolveGrid(p, 10); err == nil {
		t.Error("invalid problem must be rejected")
	}
}

func TestSolveOnNonIIDLikeProblem(t *testing.T) {
	// Larger gradient variance (non-IID shards) inflates A1, pushing K*
	// above 1 — the behaviour the paper predicts when datasets differ.
	p := DefaultProblem()
	p.Bound.A1 = 0.4
	plan, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.K < 2 {
		t.Errorf("K = %d with inflated A1, want > 1", plan.K)
	}
	// Cross-check optimality against the grid.
	grid, err := SolveGrid(p, int(p.EMax(float64(p.Servers)))+1)
	if err != nil {
		t.Fatalf("SolveGrid: %v", err)
	}
	if plan.PredictedJoules > grid.PredictedJoules*(1+0.01) {
		t.Errorf("ACS %v J vs grid %v J", plan.PredictedJoules, grid.PredictedJoules)
	}
}

// TestSearchesAllocationFree pins the exhaustive grid search and the
// golden-section minimizer at zero heap allocations per call.
func TestSearchesAllocationFree(t *testing.T) {
	p := DefaultProblem()
	eMax := int(p.EMax(1)) + 1
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"SolveGrid", func() error { _, err := SolveGrid(p, eMax); return err }},
		{"GoldenSection", func() error { _, err := optim.GoldenSection(f, -100, 100, 1e-9); return err }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v per call, want 0", tc.name, allocs)
		}
		t.Logf("%s allocates %v per call", tc.name, allocs)
	}
}
