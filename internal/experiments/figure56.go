package experiments

import (
	"fmt"
	"io"
	"math"

	"eefei/internal/core"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
	"eefei/internal/ml"
	"eefei/internal/sim"
)

// maxSweep returns the largest E the theory curve must stay feasible for.
func maxSweep(es []int, pinnedE int) int {
	out := pinnedE
	for _, e := range es {
		if e > out {
			out = e
		}
	}
	if out < 100 {
		out = 100
	}
	return out
}

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

// SweepConfig tunes the energy sweeps; zero values select the paper's
// settings.
type SweepConfig struct {
	// Ks is the Fig.-5 sweep (default 1,2,5,10,20).
	Ks []int
	// Es is the Fig.-6 sweep (default 1,5,10,20,40,60,100).
	Es []int
	// PinnedE is the Fig.-5 local epoch count (default 40).
	PinnedE int
	// PinnedK is the Fig.-6 client count (default 1, the IID optimum).
	PinnedK int
}

func (c *SweepConfig) defaults() {
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 5, 10, 20}
	}
	if len(c.Es) == 0 {
		c.Es = []int{1, 5, 10, 20, 40, 60, 100}
	}
	if c.PinnedE <= 0 {
		c.PinnedE = 40
	}
	if c.PinnedK <= 0 {
		c.PinnedK = 1
	}
}

// sweepRun is the outcome of one measured training at a sweep point.
type sweepRun struct {
	k, e     int
	result   *sim.Result
	rounds   int // rounds to target, -1 when capped
	measured float64
}

// runSweep trains at each (k, e) cell and returns the runs.
func runSweep(setup *Setup, cells [][2]int) ([]sweepRun, error) {
	runs := make([]sweepRun, 0, len(cells))
	for _, cell := range cells {
		k, e := cell[0], cell[1]
		res, err := setup.RunTraining(k, e, 1)
		if err != nil {
			return nil, fmt.Errorf("sweep (K=%d,E=%d): %w", k, e, err)
		}
		runs = append(runs, sweepRun{
			k: k, e: e,
			result:   res,
			rounds:   RoundsToAccuracy(res.History, setup.AccuracyTarget),
			measured: res.TotalJoules(),
		})
	}
	return runs, nil
}

// FStar estimates the global minimum loss F(ω*) by long centralized
// full-batch training over the union of all shards. The estimate is cached
// on the setup: it must sit at or below every loss a federated run can
// reach, so it trains an order of magnitude longer than the experiments do.
func FStar(setup *Setup, epochs int) (float64, error) {
	if epochs <= 0 {
		if setup.fStar != nil {
			return *setup.fStar, nil
		}
		epochs = 2000
	}
	union, err := UnionDataset(setup)
	if err != nil {
		return 0, err
	}
	model := ml.NewModel(union.Classes, union.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: setup.LearningRate, Decay: 0.9995, DecayEvery: 1})
	if err != nil {
		return 0, fmt.Errorf("f* sgd: %w", err)
	}
	if _, err := sgd.Train(model, union, epochs); err != nil {
		return 0, fmt.Errorf("f* training: %w", err)
	}
	loss, err := ml.Loss(model, union)
	if err != nil {
		return 0, fmt.Errorf("f* loss: %w", err)
	}
	if epochs == 2000 {
		setup.fStar = &loss
	}
	return loss, nil
}

// CalibrateProblem closes the measurement → model loop the paper performs
// between Sections IV and VI: it trains a small, well-conditioned grid of
// (K, E) cells for a fixed number of rounds (so K, E and T all vary in the
// data), estimates F* by centralized training, fits the bound constants to
// the observed loss-gap trajectories, and derives scale-appropriate energy
// params. The target gap ε is taken from a reference run's gap at the
// accuracy target, floored so every configuration with K ≥ 1 and E ≤ eMax
// stays feasible (otherwise the theory curve would be +Inf at swept points).
// The fit is cached on the Setup; the floor depends on eMax and is applied
// per call.
func CalibrateProblem(setup *Setup, eMax int) (core.Problem, error) {
	if eMax < 1 {
		eMax = 100
	}
	if setup.calibrated == nil {
		p, err := calibrate(setup)
		if err != nil {
			return core.Problem{}, err
		}
		setup.calibrated = &p
	}
	p := *setup.calibrated
	// Feasibility floor: slack at (K=1, E=eMax) must stay positive.
	if floor := (p.Bound.A1 + p.Bound.A2*float64(eMax-1)) * 1.25; p.Epsilon < floor {
		p.Epsilon = floor
	}
	if err := p.Validate(); err != nil {
		return core.Problem{}, fmt.Errorf("calibrated problem: %w", err)
	}
	return p, nil
}

// calibrate is CalibrateProblem's fit: everything but the ε floor.
func calibrate(setup *Setup) (core.Problem, error) {
	fStar, err := FStar(setup, 0)
	if err != nil {
		return core.Problem{}, err
	}

	// Calibration grid: K and E both vary; every run goes a fixed 12 rounds
	// so the trajectories sample many T values.
	grid := [][2]int{{1, 1}, {1, 8}, {1, 64}, {4, 1}, {4, 8}, {4, 32}, {16, 3}}
	const calibrationRounds = 12
	var obs []core.GapObservation
	for _, cell := range grid {
		k, e := cell[0], cell[1]
		system, err := sim.New(setup.simConfig(k, e, 2), setup.Shards, setup.Test)
		if err != nil {
			return core.Problem{}, fmt.Errorf("calibrate (K=%d,E=%d): %w", k, e, err)
		}
		res, err := system.Run(fl.MaxRounds(calibrationRounds))
		if err != nil {
			return core.Problem{}, fmt.Errorf("calibrate run (K=%d,E=%d): %w", k, e, err)
		}
		for t, rec := range res.History {
			gap := rec.TrainLoss - fStar
			if gap <= 0 {
				continue
			}
			obs = append(obs, core.GapObservation{K: k, E: e, T: t + 1, Gap: gap})
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
	// exactly: T*(K,E) = T_emp at (4, 8) and at (1, 64). From Eq. (11),
	// each gives ε = A1/K + A2(E−1) + A0/(T_emp·E); two equations, two
	// unknowns.
	t1, err := roundsToTarget(setup, 4, 8)
	if err != nil {
		return core.Problem{}, err
	}
	t2, err := roundsToTarget(setup, 1, 64)
	if err != nil {
		return core.Problem{}, err
	}
	base1 := bound.A1/4 + bound.A0/(float64(t1)*8)
	base2 := bound.A1/1 + bound.A0/(float64(t2)*64)
	bound.A2 = (base2 - base1) / (7 - 63) // negative slope → positive A2 when ref2 is "harder"
	if bound.A2 < 0 {
		bound.A2 = 0
	}
	eps := base1 + bound.A2*7

	params, err := core.NewEnergyParams(energy.DefaultPiDeviceModel(), iot.DefaultNBIoTConfig(),
		setup.SamplesPerServer(), true)
	if err != nil {
		return core.Problem{}, fmt.Errorf("calibrate energy: %w", err)
	}
	return core.Problem{Bound: bound, Energy: params, Epsilon: eps, Servers: setup.Servers}, nil
}

// Figure5 runs the K-sweep and assembles theory vs measurement.
func Figure5(setup *Setup, cfg SweepConfig) (*Figure5Result, error) {
	cfg.defaults()
	cells := make([][2]int, 0, len(cfg.Ks))
	for _, k := range cfg.Ks {
		cells = append(cells, [2]int{k, cfg.PinnedE})
	}
	runs, err := runSweep(setup, cells)
	if err != nil {
		return nil, err
	}
	problem, err := CalibrateProblem(setup, maxSweep(cfg.Es, cfg.PinnedE))
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{PinnedE: cfg.PinnedE, Problem: problem}
	bestMeasured := math.Inf(1)
	for _, r := range runs {
		pt := EnergyCurvePoint{
			Param:           r.k,
			MeasuredJoules:  r.measured,
			TheoryJoules:    problem.Objective(float64(r.k), float64(cfg.PinnedE)),
			EmpiricalRounds: r.rounds,
			FinalAccuracy:   r.result.FinalAccuracy,
		}
		if t, err := problem.TStar(float64(r.k), float64(cfg.PinnedE)); err == nil {
			pt.TheoryRounds = t
		} else {
			pt.TheoryRounds = math.NaN()
		}
		if r.measured < bestMeasured {
			bestMeasured = r.measured
			res.KStarMeasured = r.k
		}
		res.Points = append(res.Points, pt)
	}
	if kStar, err := problem.OptimalK(float64(cfg.PinnedE)); err == nil {
		res.KStarTheory = int(math.Round(kStar))
	} else {
		res.KStarTheory = -1
	}
	return res, nil
}

// Figure6 runs the E-sweep and assembles theory vs measurement plus the
// headline savings.
func Figure6(setup *Setup, cfg SweepConfig) (*Figure6Result, error) {
	cfg.defaults()
	cells := make([][2]int, 0, len(cfg.Es))
	for _, e := range cfg.Es {
		cells = append(cells, [2]int{cfg.PinnedK, e})
	}
	runs, err := runSweep(setup, cells)
	if err != nil {
		return nil, err
	}
	problem, err := CalibrateProblem(setup, maxSweep(cfg.Es, cfg.PinnedE))
	if err != nil {
		return nil, err
	}
	res := &Figure6Result{PinnedK: cfg.PinnedK, Problem: problem}
	bestMeasured := math.Inf(1)
	var baselineMeasured, baselineTheory float64
	var bestTheory = math.Inf(1)
	for _, r := range runs {
		pt := EnergyCurvePoint{
			Param:           r.e,
			MeasuredJoules:  r.measured,
			TheoryJoules:    problem.Objective(float64(cfg.PinnedK), float64(r.e)),
			EmpiricalRounds: r.rounds,
			FinalAccuracy:   r.result.FinalAccuracy,
		}
		if t, err := problem.TStar(float64(cfg.PinnedK), float64(r.e)); err == nil {
			pt.TheoryRounds = t
		} else {
			pt.TheoryRounds = math.NaN()
		}
		if r.e == 1 {
			baselineMeasured = r.measured
			baselineTheory = pt.TheoryJoules
		}
		if r.measured < bestMeasured {
			bestMeasured = r.measured
			res.EStarMeasured = r.e
		}
		if pt.TheoryJoules < bestTheory {
			bestTheory = pt.TheoryJoules
		}
		res.Points = append(res.Points, pt)
	}
	if eStar, err := problem.OptimalE(float64(cfg.PinnedK)); err == nil && !math.IsInf(eStar, 1) {
		res.EStarTheory = int(math.Round(eStar))
	} else {
		res.EStarTheory = -1
	}
	if baselineMeasured > 0 {
		res.MeasuredSavings = 1 - bestMeasured/baselineMeasured
	} else {
		res.MeasuredSavings = math.NaN()
	}
	if baselineTheory > 0 && !math.IsInf(baselineTheory, 1) {
		res.TheorySavings = 1 - bestTheory/baselineTheory
	} else {
		res.TheorySavings = math.NaN()
	}
	return res, nil
}

// Render writes the Fig.-5 table.
func (r *Figure5Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 5 — energy vs K (E=%d): theory (Eq.12) vs simulated measurement\n", r.PinnedE); err != nil {
		return err
	}
	if err := renderEnergyPoints(w, "K", r.Points); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "K*: theory %d, measured %d (paper: 1 under IID)\n",
		r.KStarTheory, r.KStarMeasured)
	return err
}

// Render writes the Fig.-6 table.
func (r *Figure6Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 6 — energy vs E (K=%d): theory (Eq.12) vs simulated measurement\n", r.PinnedK); err != nil {
		return err
	}
	if err := renderEnergyPoints(w, "E", r.Points); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "E*: theory %d, measured %d; savings vs E=1: measured %.1f%%, theory %.1f%% (paper: 49.8%%)\n",
		r.EStarTheory, r.EStarMeasured, 100*r.MeasuredSavings, 100*r.TheorySavings)
	return err
}

func renderEnergyPoints(w io.Writer, param string, pts []EnergyCurvePoint) error {
	if _, err := fmt.Fprintf(w, "%4s %14s %14s %10s %10s %10s\n",
		param, "measured (J)", "theory (J)", "T emp", "T*", "final acc"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%4d %14.2f %14.2f %10d %10.1f %10.4f\n",
			p.Param, p.MeasuredJoules, p.TheoryJoules, p.EmpiricalRounds, p.TheoryRounds, p.FinalAccuracy); err != nil {
			return err
		}
	}
	return nil
}
