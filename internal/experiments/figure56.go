package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"eefei/internal/core"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
	"eefei/internal/ml"
	"eefei/internal/sim"
)

// EnergyCurvePoint is one point of the Fig. 5/6 energy curves.
type EnergyCurvePoint struct {
	// Param is the swept value (K for Fig. 5, E for Fig. 6).
	Param int
	// MeasuredJoules is the simulated-prototype energy to train to the
	// accuracy target (the paper's "real traces" dashed line).
	MeasuredJoules float64
	// TheoryJoules is the bound-based Ê of Eq. (12) (the solid line).
	TheoryJoules float64
	// EmpiricalRounds is the measured T to reach the target (-1 if the cap
	// was hit first).
	EmpiricalRounds int
	// TheoryRounds is the bound's T* for this configuration.
	TheoryRounds float64
	// FinalAccuracy is the accuracy when the run stopped.
	FinalAccuracy float64
}

// Figure5Result reproduces Fig. 5: total energy vs K at pinned E, theory vs
// measurement, with both K* markers.
type Figure5Result struct {
	Points  []EnergyCurvePoint
	PinnedE int
	// KStarTheory is from Eq. (15) on the calibrated problem.
	KStarTheory int
	// KStarMeasured is the argmin of the measured curve.
	KStarMeasured int
	// Problem is the calibrated problem used for the theory curve.
	Problem core.Problem
}

// Figure6Result reproduces Fig. 6: total energy vs E at pinned K, theory vs
// measurement, both E* markers, and the headline saving versus (K=1, E=1).
type Figure6Result struct {
	Points  []EnergyCurvePoint
	PinnedK int
	// EStarTheory is from the corrected Eq. (17) on the calibrated problem.
	EStarTheory int
	// EStarMeasured is the argmin of the measured curve.
	EStarMeasured int
	// MeasuredSavings is 1 − min(measured)/measured(E=1) — the paper
	// reports 49.8% at paper scale.
	MeasuredSavings float64
	// TheorySavings is the same ratio on the theory curve.
	TheorySavings float64
	Problem       core.Problem
}

// figure5Ks and figure6Es are the paper's energy sweeps: Fig. 5 pins E=40,
// Fig. 6 pins K=1 (the IID optimum) and starts at its E=1 baseline.
var (
	figure5Ks = []int{1, 2, 5, 10, 20}
	figure6Es = []int{1, 5, 10, 20, 40, 60, 100}
)

// figureEMax is the largest E the figures train; the calibrated ε keeps
// every K ≥ 1 feasible up to it.
const figureEMax = 100

// calibrationSeed is the seed every calibration run trains at, whatever
// seed the figures use: calibration fits the setup's constants, not a curve.
const calibrationSeed = 2

// FStar estimates the global minimum loss F(ω*) by 2000 epochs of
// centralized full-batch training over the union of all shards. The
// estimate must sit at or below every loss a federated run can reach, so it
// trains an order of magnitude longer than the experiments do; it is cached
// on the setup.
func FStar(setup *Setup) (float64, error) {
	if setup.fStar != nil {
		return *setup.fStar, nil
	}
	union, err := UnionDataset(setup)
	if err != nil {
		return 0, err
	}
	model := ml.NewModel(union.Classes, union.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: setup.LearningRate, Decay: 0.9995})
	if err != nil {
		return 0, fmt.Errorf("f* sgd: %w", err)
	}
	if _, err := sgd.TrainFinal(model, union, 2000); err != nil {
		return 0, fmt.Errorf("f* training: %w", err)
	}
	loss, err := ml.Loss(model, union)
	if err != nil {
		return 0, fmt.Errorf("f* loss: %w", err)
	}
	setup.fStar = &loss
	return loss, nil
}

// CalibrateProblem closes the measurement → model loop the paper performs
// between Sections IV and VI: it trains a small, well-conditioned grid of
// (K, E) cells for a fixed number of rounds (so K, E and T all vary in the
// data), estimates F* by centralized training, fits the bound constants to
// the observed loss-gap trajectories, and derives scale-appropriate energy
// params. The target gap ε is taken from a reference run's gap at the
// accuracy target, floored so every configuration with K ≥ 1 and
// E ≤ figureEMax stays feasible (otherwise the theory curve would be +Inf at
// swept points). Every run trains at calibrationSeed; the fit is cached on
// the Setup.
func CalibrateProblem(setup *Setup) (core.Problem, error) {
	if setup.calibrated == nil {
		p, err := calibrate(setup)
		if err != nil {
			return core.Problem{}, err
		}
		if err := p.Validate(); err != nil {
			return core.Problem{}, fmt.Errorf("calibrated problem: %w", err)
		}
		setup.calibrated = &p
	}
	return *setup.calibrated, nil
}

// calibrate is CalibrateProblem's fit.
func calibrate(setup *Setup) (core.Problem, error) {
	fStar, err := FStar(setup)
	if err != nil {
		return core.Problem{}, err
	}

	// Calibration grid: K and E both vary; every run goes a fixed 12 rounds
	// so the trajectories sample many T values (stopping at the target
	// would cut them short and move the fit).
	grid := [][2]int{{1, 1}, {1, 8}, {1, 64}, {4, 1}, {4, 8}, {4, 32}, {16, 3}}
	const calibrationRounds = 12
	runs := make([]*sim.Result, len(grid))
	if err := inOrder(len(grid), func(i int) error {
		k, e := grid[i][0], grid[i][1]
		system, err := sim.New(setup.simConfig(k, e, calibrationSeed), setup.Shards, setup.Test)
		if err != nil {
			return fmt.Errorf("calibrate (K=%d,E=%d): %w", k, e, err)
		}
		if runs[i], err = system.Run(fl.MaxRounds(calibrationRounds)); err != nil {
			return fmt.Errorf("calibrate run (K=%d,E=%d): %w", k, e, err)
		}
		return nil
	}, nil); err != nil {
		return core.Problem{}, err
	}
	var obs []core.GapObservation
	for i, res := range runs {
		for t, rec := range res.History {
			gap := rec.TrainLoss - fStar
			if gap <= 0 {
				continue
			}
			obs = append(obs, core.GapObservation{K: grid[i][0], E: grid[i][1], T: t + 1, Gap: gap})
		}
	}
	// Fit A0 and A1 with an explicit intercept so the irreducible
	// noise-floor gap does not masquerade as a 1/K dependence. The A2 term
	// is deliberately left out of the regression: within short calibration
	// runs, large E *reduces* the gap (more local work per round), and the
	// drift penalty only shows up asymptotically — we pin A2 from
	// to-target reference runs below instead.
	a0, a1, err := fitA0A1(obs)
	if err != nil {
		return core.Problem{}, fmt.Errorf("calibrate bound: %w", err)
	}
	bound := core.BoundConstants{A0: a0, A1: a1}

	// Pin (ε, A2) so the theory reproduces two empirical reference points
	// exactly: T*(K,E) = T_emp at (4, 8) and at (1, 64), where T_emp is the
	// round cap for a run that never reaches the target. From Eq. (11),
	// each gives ε = A1/K + A2(E−1) + A0/(T_emp·E); two equations, two
	// unknowns.
	refs, err := setup.train([]cell{{4, 8, calibrationSeed}, {1, 64, calibrationSeed}})
	if err != nil {
		return core.Problem{}, fmt.Errorf("calibration reference: %w", err)
	}
	var tEmp [2]float64
	for i, r := range refs {
		tEmp[i] = float64(len(r.History))
		if t := RoundsToAccuracy(r.History, setup.AccuracyTarget); t > 0 {
			tEmp[i] = float64(t)
		}
	}
	base1 := bound.A1/4 + bound.A0/(tEmp[0]*8)
	base2 := bound.A1/1 + bound.A0/(tEmp[1]*64)
	bound.A2 = (base2 - base1) / (7 - 63) // negative slope → positive A2 when ref2 is "harder"
	if bound.A2 < 0 {
		bound.A2 = 0
	}
	eps := base1 + bound.A2*7
	// Feasibility floor: slack at (K=1, E=figureEMax) must stay positive.
	if floor := (bound.A1 + bound.A2*float64(figureEMax-1)) * 1.25; eps < floor {
		eps = floor
	}

	params, err := core.NewEnergyParams(energy.DefaultPiDeviceModel(), iot.DefaultNBIoTConfig(),
		setup.SamplesPerServer(), true)
	if err != nil {
		return core.Problem{}, fmt.Errorf("calibrate energy: %w", err)
	}
	return core.Problem{Bound: bound, Energy: params, Epsilon: eps, Servers: setup.Servers}, nil
}

// energyCurve trains each cell to the target and prices it on the
// calibrated problem; params[i] labels cell i's point. best indexes the
// point of least measured energy (the first, on ties).
func energyCurve(setup *Setup, cells []cell, params []int) (pts []EnergyCurvePoint, problem core.Problem, best int, err error) {
	runs, err := setup.train(cells)
	if err != nil {
		return nil, core.Problem{}, 0, err
	}
	if problem, err = CalibrateProblem(setup); err != nil {
		return nil, core.Problem{}, 0, err
	}
	pts = make([]EnergyCurvePoint, len(cells))
	for i, c := range cells {
		k, e := float64(c.k), float64(c.e)
		pts[i] = EnergyCurvePoint{
			Param:           params[i],
			MeasuredJoules:  runs[i].TotalJoules(),
			TheoryJoules:    problem.Objective(k, e),
			EmpiricalRounds: RoundsToAccuracy(runs[i].History, setup.AccuracyTarget),
			TheoryRounds:    math.NaN(),
			FinalAccuracy:   runs[i].FinalAccuracy,
		}
		if t, err := problem.TStar(k, e); err == nil {
			pts[i].TheoryRounds = t
		}
		if pts[i].MeasuredJoules < pts[best].MeasuredJoules {
			best = i
		}
	}
	return pts, problem, best, nil
}

// Figure5 runs the K-sweep at seed and assembles theory vs measurement.
func Figure5(setup *Setup, seed uint64) (*Figure5Result, error) {
	res := &Figure5Result{PinnedE: 40, KStarTheory: -1}
	cells := make([]cell, len(figure5Ks))
	for i, k := range figure5Ks {
		cells[i] = cell{k, res.PinnedE, seed}
	}
	pts, problem, best, err := energyCurve(setup, cells, figure5Ks)
	if err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	res.Points, res.Problem, res.KStarMeasured = pts, problem, figure5Ks[best]
	if kStar, err := problem.OptimalK(float64(res.PinnedE)); err == nil {
		res.KStarTheory = int(math.Round(kStar))
	}
	return res, nil
}

// Figure6 runs the E-sweep at seed and assembles theory vs measurement plus
// the headline savings against its first point, E=1.
func Figure6(setup *Setup, seed uint64) (*Figure6Result, error) {
	res := &Figure6Result{PinnedK: 1, EStarTheory: -1}
	cells := make([]cell, len(figure6Es))
	for i, e := range figure6Es {
		cells[i] = cell{res.PinnedK, e, seed}
	}
	pts, problem, best, err := energyCurve(setup, cells, figure6Es)
	if err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	res.Points, res.Problem, res.EStarMeasured = pts, problem, figure6Es[best]
	if eStar, err := problem.OptimalE(float64(res.PinnedK)); err == nil && !math.IsInf(eStar, 1) {
		res.EStarTheory = int(math.Round(eStar))
	}
	bestTheory := math.Inf(1)
	for _, p := range pts {
		bestTheory = math.Min(bestTheory, p.TheoryJoules)
	}
	res.MeasuredSavings = 1 - pts[best].MeasuredJoules/pts[0].MeasuredJoules
	res.TheorySavings = 1 - bestTheory/pts[0].TheoryJoules
	return res, nil
}

// Render writes the Fig.-5 table.
func (r *Figure5Result) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — energy vs K (E=%d): theory (Eq.12) vs simulated measurement\n", r.PinnedE)
	renderEnergyPoints(&b, "K", r.Points)
	fmt.Fprintf(&b, "K*: theory %d, measured %d (paper: 1 under IID)\n", r.KStarTheory, r.KStarMeasured)
	return flush(w, &b)
}

// Render writes the Fig.-6 table.
func (r *Figure6Result) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — energy vs E (K=%d): theory (Eq.12) vs simulated measurement\n", r.PinnedK)
	renderEnergyPoints(&b, "E", r.Points)
	fmt.Fprintf(&b, "E*: theory %d, measured %d; savings vs E=1: measured %.1f%%, theory %.1f%% (paper: 49.8%%)\n",
		r.EStarTheory, r.EStarMeasured, 100*r.MeasuredSavings, 100*r.TheorySavings)
	return flush(w, &b)
}

func renderEnergyPoints(b *strings.Builder, param string, pts []EnergyCurvePoint) {
	fmt.Fprintf(b, "%4s %14s %14s %10s %10s %10s\n",
		param, "measured (J)", "theory (J)", "T emp", "T*", "final acc")
	for _, p := range pts {
		fmt.Fprintf(b, "%4d %14.2f %14.2f %10d %10.1f %10.4f\n",
			p.Param, p.MeasuredJoules, p.TheoryJoules, p.EmpiricalRounds, p.TheoryRounds, p.FinalAccuracy)
	}
}
