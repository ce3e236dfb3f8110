package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eefei/internal/energy"
)

// This file contains the planner-side analyses that go beyond the paper's
// evaluation but fall out of its model: parameter sensitivity (how fragile
// is the plan to mis-calibrated constants?) and the energy/time Pareto
// frontier (the paper optimizes energy only; deployments also care about
// latency).

// SensitivityRow reports how the optimal plan responds to a relative
// perturbation of one model constant.
type SensitivityRow struct {
	// Constant names the perturbed quantity (A0, A1, A2, B0, B1, Epsilon).
	Constant string
	// Delta is the applied relative perturbation (e.g. +0.1 for +10%).
	Delta float64
	// K, E are the re-optimized integer parameters.
	K, E int
	// Joules is the re-optimized predicted energy.
	Joules float64
	// Elasticity is d(ln Ê)/d(ln constant): the % energy change per %
	// constant change.
	Elasticity float64
}

// Sensitivity re-solves the problem with each constant perturbed by ±delta
// and reports the resulting plans, baselined against the unperturbed plan.
// It answers the calibration question the paper leaves open: which of the
// fitted constants must be measured carefully, and which barely matter.
func Sensitivity(p Problem, delta float64) ([]SensitivityRow, error) {
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sensitivity delta %v outside (0,1): %w", delta, ErrParams)
	}
	base, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		return nil, fmt.Errorf("sensitivity baseline: %w", err)
	}
	perturb := []struct {
		name  string
		apply func(*Problem, float64)
	}{
		{"A0", func(q *Problem, f float64) { q.Bound.A0 *= f }},
		{"A1", func(q *Problem, f float64) { q.Bound.A1 *= f }},
		{"A2", func(q *Problem, f float64) { q.Bound.A2 *= f }},
		{"B0", func(q *Problem, f float64) { q.Energy.B0 *= f }},
		{"B1", func(q *Problem, f float64) { q.Energy.B1 *= f }},
		{"Epsilon", func(q *Problem, f float64) { q.Epsilon *= f }},
	}
	var rows []SensitivityRow
	for _, pt := range perturb {
		for _, sign := range []float64{+1, -1} {
			q := p
			d := sign * delta
			pt.apply(&q, 1+d)
			plan, err := Solve(q, DefaultPlannerConfig())
			if err != nil {
				// A perturbation can make the problem infeasible (e.g. ε
				// down, A1 up); report it as a NaN-energy row rather than
				// aborting the whole analysis.
				rows = append(rows, SensitivityRow{
					Constant: pt.name, Delta: d, K: -1, E: -1,
					Joules: math.NaN(), Elasticity: math.NaN(),
				})
				continue
			}
			elasticity := (plan.PredictedJoules/base.PredictedJoules - 1) / d
			rows = append(rows, SensitivityRow{
				Constant:   pt.name,
				Delta:      d,
				K:          plan.K,
				E:          plan.E,
				Joules:     plan.PredictedJoules,
				Elasticity: elasticity,
			})
		}
	}
	return rows, nil
}

// ParetoPoint is one energy/time trade-off on the frontier.
type ParetoPoint struct {
	K, E    int
	T       int
	Joules  float64
	Elapsed time.Duration
}

// ParetoFrontier enumerates the feasible integer (K, E) box and returns the
// non-dominated energy/time points, sorted by increasing energy. eMax
// bounds the E axis (clamped to the feasibility limit).
func ParetoFrontier(p Problem, tm energy.TimeModel, samplesPerServer, eMax int) ([]ParetoPoint, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	if eMax < 1 {
		eMax = 1
	}
	var candidates []ParetoPoint
	for k := 1; k <= p.Servers; k++ {
		for e := 1; e <= eMax; e++ {
			kf, ef := float64(k), float64(e)
			if !p.Feasible(kf, ef) {
				continue
			}
			tStar, err := p.TStar(kf, ef)
			if err != nil {
				continue
			}
			t := int(math.Ceil(tStar))
			if t < 1 {
				t = 1
			}
			candidates = append(candidates, ParetoPoint{
				K: k, E: e, T: t,
				Joules:  p.EnergyForRounds(kf, ef, float64(t)),
				Elapsed: time.Duration(t) * tm.RoundDuration(e, samplesPerServer),
			})
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no feasible point: %w", ErrInfeasible)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Joules != candidates[j].Joules {
			return candidates[i].Joules < candidates[j].Joules
		}
		return candidates[i].Elapsed < candidates[j].Elapsed
	})
	// Sweep: keep points whose elapsed time strictly improves on everything
	// cheaper.
	var frontier []ParetoPoint
	best := time.Duration(math.MaxInt64)
	for _, c := range candidates {
		if c.Elapsed < best {
			frontier = append(frontier, c)
			best = c.Elapsed
		}
	}
	return frontier, nil
}
