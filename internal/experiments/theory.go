package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"eefei/internal/core"
)

// TheoryCurves renders the paper-scale theoretical Fig. 5/6 curves directly
// from the calibrated default problem — no training involved. This is the
// apples-to-apples comparison against the paper's published solid lines,
// complementing the quick-scale measured sweeps of Figure5/Figure6.
type TheoryCurves struct {
	// Problem is the paper-scale calibrated problem.
	Problem core.Problem
	// KCurve holds Ê(K, PinnedE) for K = 1…N.
	KCurve []EnergyCurvePoint
	// ECurve holds Ê(PinnedK, E) over the feasible E range.
	ECurve []EnergyCurvePoint
	// PinnedE, PinnedK mirror the paper's figures (E=40, K=1).
	PinnedE, PinnedK int
	// Plan is the jointly optimal configuration with its savings.
	Plan core.Plan
}

// PaperTheoryCurves evaluates the default (prototype-calibrated) problem.
func PaperTheoryCurves() (*TheoryCurves, error) {
	p := core.DefaultProblem()
	plan, err := core.Solve(p, core.DefaultPlannerConfig())
	if err != nil {
		return nil, fmt.Errorf("theory plan: %w", err)
	}
	out := &TheoryCurves{Problem: p, PinnedE: 40, PinnedK: 1, Plan: plan}
	for k := 1; k <= p.Servers; k++ {
		pt := EnergyCurvePoint{Param: k, MeasuredJoules: math.NaN()}
		pt.TheoryJoules = p.Objective(float64(k), float64(out.PinnedE))
		if t, err := p.TStar(float64(k), float64(out.PinnedE)); err == nil {
			pt.TheoryRounds = t
		} else {
			pt.TheoryRounds = math.NaN()
		}
		out.KCurve = append(out.KCurve, pt)
	}
	eMax := int(p.EMax(float64(out.PinnedK)))
	for _, e := range spacedInts(1, eMax-1, 16) {
		pt := EnergyCurvePoint{Param: e, MeasuredJoules: math.NaN()}
		pt.TheoryJoules = p.Objective(float64(out.PinnedK), float64(e))
		if t, err := p.TStar(float64(out.PinnedK), float64(e)); err == nil {
			pt.TheoryRounds = t
		} else {
			pt.TheoryRounds = math.NaN()
		}
		out.ECurve = append(out.ECurve, pt)
	}
	return out, nil
}

// spacedInts returns up to n distinct integers spread over [lo, hi],
// denser near lo (log-ish spacing suits the hyperbolic curves).
func spacedInts(lo, hi, n int) []int {
	if hi < lo {
		hi = lo
	}
	var out []int
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		v := lo + int(math.Round((math.Pow(float64(hi-lo)+1, frac) - 1))) // geometric
		if v > hi {
			v = hi
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Render writes both curves and the headline plan.
func (t *TheoryCurves) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Paper-scale theory (A=%v, B=(%.4g, %.4g), ε=%g, N=%d)\n",
		t.Problem.Bound, t.Problem.Energy.B0, t.Problem.Energy.B1,
		t.Problem.Epsilon, t.Problem.Servers)
	fmt.Fprintf(&b, "Fig. 5 theory — Ê(K, E=%d):\n%4s %12s %10s\n", t.PinnedE, "K", "Ê (J)", "T*")
	for _, p := range t.KCurve {
		fmt.Fprintf(&b, "%4d %12.1f %10.1f\n", p.Param, p.TheoryJoules, p.TheoryRounds)
	}
	fmt.Fprintf(&b, "Fig. 6 theory — Ê(K=%d, E):\n%4s %12s %10s\n", t.PinnedK, "E", "Ê (J)", "T*")
	for _, p := range t.ECurve {
		fmt.Fprintf(&b, "%4d %12.1f %10.1f\n", p.Param, p.TheoryJoules, p.TheoryRounds)
	}
	fmt.Fprintf(&b, "optimum: K*=%d E*=%d T*=%d, Ê=%.1f J, saving vs (1,1) = %.1f%% (paper: 49.8%%)\n",
		t.Plan.K, t.Plan.E, t.Plan.T, t.Plan.PredictedJoules, 100*t.Plan.Savings())
	return flush(w, &b)
}
