package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/mat"
)

// Measured-vs-analytic calibration comparison: the experiment a deployment
// runs to decide whether the analytic Pi device model it planned with still
// matches what the fleet reports. Per-device-round phase timings are drawn
// from the analytic TimeModel with a bounded relative jitter (the measurement
// noise a real coordinator sees), replayed through an energy.Calibrator, and
// the resulting measured ledger is compared phase by phase against the
// DeviceModel's closed-form joules. A second calibrator is fed one round per
// Table-I (E, n) shape so the two-coefficient training-law refit is
// identifiable, yielding the recovered TimeModel and its per-phase drift.

// CalibrationRow compares one phase's measured and analytic energy for the
// whole run.
type CalibrationRow struct {
	Phase energy.Phase
	// MeasuredJoules is what the Calibrator accumulated from the jittered
	// round timings.
	MeasuredJoules float64
	// AnalyticJoules is the DeviceModel's closed-form prediction for the same
	// K devices × rounds.
	AnalyticJoules float64
	// DeltaPct is 100·(Measured−Analytic)/Analytic.
	DeltaPct float64
}

// CalibrationResult is a full measured-vs-analytic comparison.
type CalibrationResult struct {
	K, E, Rounds int
	Samples      int
	// Jitter is the relative measurement-noise amplitude applied to every
	// phase duration.
	Jitter float64
	Rows   []CalibrationRow
	// Refit is the TimeModel recovered from measured Table-I-grid rounds.
	Refit energy.TimeModel
	// Drift compares the refit feed's measured means against the analytic
	// model per phase.
	Drift []energy.PhaseDrift
}

// roundStats prices one device-round of shape (e, n) under tm, with every
// phase duration scaled by a relative jitter drawn from rng in [−j, +j].
func roundStats(tm energy.TimeModel, e, n int, j float64, rng *mat.RNG) fl.RoundStats {
	jit := func(d time.Duration) time.Duration {
		if j <= 0 {
			return d
		}
		return time.Duration(float64(d) * (1 + j*(2*rng.Float64()-1)))
	}
	s := fl.RoundStats{
		Select:    jit(tm.Waiting),
		Train:     jit(tm.TrainDuration(e, n)),
		Aggregate: jit(tm.Upload),
		Evaluate:  jit(tm.Download),
	}
	s.Total = s.Select + s.Train + s.Aggregate + s.Evaluate
	return s
}

// CompareCalibration runs the measured-vs-analytic comparison for a (K, E)
// configuration over the given number of global rounds. jitter is the
// relative noise amplitude (0 reproduces the analytic model exactly; the
// paper's meter noise is on the order of 1%).
func CompareCalibration(setup *Setup, k, e, rounds int, jitter float64, seed uint64) (*CalibrationResult, error) {
	if k < 1 || e < 1 || rounds < 1 {
		return nil, fmt.Errorf("calibration comparison needs K, E, rounds >= 1 (got %d, %d, %d)", k, e, rounds)
	}
	if jitter < 0 || jitter >= 1 {
		return nil, fmt.Errorf("jitter %v out of [0, 1)", jitter)
	}
	dm := energy.DefaultPiDeviceModel()
	n := setup.SamplesPerServer()
	rng := mat.NewRNG(seed)

	// Feed K device-rounds per global round at the run's (E, n) shape.
	cal, err := energy.NewCalibrator(dm.Power, e, n)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		for d := 0; d < k; d++ {
			cal.ObserveRound(roundStats(dm.Time, e, n, jitter, rng))
		}
	}

	deviceRounds := float64(k * rounds)
	led := cal.Ledger()
	analytic := map[energy.Phase]float64{
		energy.PhaseWaiting:  dm.Power.Energy(energy.PhaseWaiting, dm.Time.Waiting),
		energy.PhaseDownload: dm.DownloadEnergy(),
		energy.PhaseTrain:    dm.TrainEnergy(e, n),
		energy.PhaseUpload:   dm.UploadEnergy(),
	}
	res := &CalibrationResult{K: k, E: e, Rounds: rounds, Samples: n, Jitter: jitter}
	for _, p := range energy.Phases {
		row := CalibrationRow{
			Phase:          p,
			MeasuredJoules: led.Phase(p),
			AnalyticJoules: analytic[p] * deviceRounds,
		}
		if row.AnalyticJoules > 0 {
			row.DeltaPct = 100 * (row.MeasuredJoules - row.AnalyticJoules) / row.AnalyticJoules
		}
		res.Rows = append(res.Rows, row)
	}

	// Refit feed: one jittered round per Table-I (E, n) shape makes the
	// two-coefficient training law identifiable.
	refitCal, err := energy.NewCalibrator(dm.Power, 1, 0)
	if err != nil {
		return nil, err
	}
	for _, row := range energy.PaperTableI() {
		if err := refitCal.SetRoundShape(row.Epochs, row.Samples); err != nil {
			return nil, err
		}
		refitCal.ObserveRound(roundStats(dm.Time, row.Epochs, row.Samples, jitter, rng))
	}
	res.Refit, err = refitCal.Refit()
	if err != nil {
		return nil, fmt.Errorf("refit: %w", err)
	}
	res.Drift = refitCal.Drift(dm.Time)
	return res, nil
}

// Render writes the comparison tables.
func (r *CalibrationResult) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Calibration — measured vs analytic energy (K=%d, E=%d, n=%d, %d rounds, jitter %.1f%%)\n",
		r.K, r.E, r.Samples, r.Rounds, 100*r.Jitter)
	fmt.Fprintf(&b, "%-9s %14s %14s %8s\n", "phase", "measured (J)", "analytic (J)", "Δ%")
	var m, a float64
	for _, row := range r.Rows {
		m += row.MeasuredJoules
		a += row.AnalyticJoules
		fmt.Fprintf(&b, "%-9s %14.4f %14.4f %+7.2f\n",
			row.Phase, row.MeasuredJoules, row.AnalyticJoules, row.DeltaPct)
	}
	fmt.Fprintf(&b, "%-9s %14.4f %14.4f\n", "total", m, a)
	fmt.Fprintf(&b, "refit time model: per-sample %v, per-epoch %v, download %v, upload %v, waiting %v\n",
		r.Refit.TrainPerSample, r.Refit.TrainPerEpoch, r.Refit.Download, r.Refit.Upload, r.Refit.Waiting)
	for _, d := range r.Drift {
		fmt.Fprintf(&b, "  %-9s measured %12v  modeled %12v  drift %+6.2f%%\n",
			d.Phase, d.Measured, d.Modeled, d.Pct)
	}
	return flush(w, &b)
}
