package core

import (
	"fmt"
	"math"
	"testing"

	"eefei/internal/optim"
)

// solveNumeric runs ACS with numeric golden-section partial minimizers
// instead of the closed forms — the ablation that validates Eqs. (15)/(17).
// Only TestSolveNumericAgreesWithClosedForm and the benchmark pair below
// use it.
func solveNumeric(p Problem, cfg PlannerConfig) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if cfg.Residual <= 0 {
		cfg.Residual = 1e-9
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	eCap := cfg.ECap
	if eCap <= 0 {
		eCap = 10000
	}
	k0 := float64(p.Servers)
	problem := optim.ACSProblem{
		Objective: p.Objective,
		MinimizeX: func(e float64) float64 {
			lo := math.Max(1, p.KMin(e)*(1+1e-9))
			hi := float64(p.Servers)
			if lo >= hi {
				return hi
			}
			k, err := optim.GoldenSection(func(k float64) float64 { return p.Objective(k, e) }, lo, hi, 1e-9)
			if err != nil {
				return hi
			}
			return k
		},
		MinimizeY: func(k float64) float64 {
			hi := p.EMax(k)
			if math.IsInf(hi, 1) || hi > eCap {
				hi = eCap
			}
			hi *= 1 - 1e-9 // stay strictly inside the open feasibility bound
			if hi <= 1 {
				return 1
			}
			e, err := optim.GoldenSection(func(e float64) float64 { return p.Objective(k, e) }, 1, hi, 1e-9)
			if err != nil {
				return 1
			}
			return e
		},
	}
	res, err := optim.ACS(problem, k0, 1, cfg.Residual, cfg.MaxIterations)
	if err != nil {
		return Plan{}, fmt.Errorf("numeric ACS: %w", err)
	}
	plan, err := integerize(p, res.X, res.Y)
	if err != nil {
		return Plan{}, err
	}
	plan.Iterations = res.Iterations
	plan.BaselineJoules = p.Objective(1, 1)
	return plan, nil
}

// BenchmarkAblationACSClosedForm times Algorithm 1 with the closed-form
// partial minimizers of Eqs. (15)/(17).
func BenchmarkAblationACSClosedForm(b *testing.B) {
	p := DefaultProblem()
	cfg := DefaultPlannerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p, cfg); err != nil {
			b.Fatalf("Solve: %v", err)
		}
	}
}

// BenchmarkAblationACSNumeric replaces the closed forms with golden-section
// searches: same answer, measurably slower — the value of Eqs. (15)/(17).
func BenchmarkAblationACSNumeric(b *testing.B) {
	p := DefaultProblem()
	cfg := DefaultPlannerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := solveNumeric(p, cfg); err != nil {
			b.Fatalf("solveNumeric: %v", err)
		}
	}
}
