package energy

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
)

// roundStatsFor synthesizes the RoundStats a perfectly-instrumented device
// round of shape (E, n) under tm would report: every coordination phase's
// measured wall-clock equals the analytic phase duration it maps to.
func roundStatsFor(tm TimeModel, round, epochs, samples int) fl.RoundStats {
	s := fl.RoundStats{
		Round:     round,
		Select:    tm.Waiting,
		Train:     tm.TrainDuration(epochs, samples),
		Aggregate: tm.Upload,
		Evaluate:  tm.Download,
	}
	s.Total = s.Select + s.Train + s.Aggregate + s.Evaluate
	return s
}

// feedGrid drives the calibrator with one round per Table-I (E, n) cell.
func feedGrid(t *testing.T, c *Calibrator, tm TimeModel) int {
	t.Helper()
	rounds := 0
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			if err := c.SetRoundShape(e, n); err != nil {
				t.Fatalf("SetRoundShape(%d, %d): %v", e, n, err)
			}
			c.ObserveRound(roundStatsFor(tm, rounds, e, n))
			rounds++
		}
	}
	return rounds
}

// TestCalibratorClosedLoop is the acceptance pin for the trace→energy loop:
// rounds observed by a live Calibrator refit a TimeModel matching the
// DefaultPiTimeModel they were generated from within 1%, and the measured
// ledger matches the analytic DeviceModel per phase.
func TestCalibratorClosedLoop(t *testing.T) {
	dm := DefaultPiDeviceModel()
	c, err := NewCalibrator(dm.Power, 10, 100)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	rounds := feedGrid(t, c, dm.Time)
	if c.Rounds() != rounds {
		t.Fatalf("Rounds = %d, want %d", c.Rounds(), rounds)
	}

	refit, err := c.Refit()
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	within := func(name string, got, want time.Duration) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: zero reference", name)
		}
		if rel := math.Abs(got.Seconds()-want.Seconds()) / want.Seconds(); rel > 0.01 {
			t.Errorf("%s refit %v vs model %v (%.2f%% off, want <= 1%%)", name, got, want, 100*rel)
		}
	}
	within("TrainPerSample", refit.TrainPerSample, dm.Time.TrainPerSample)
	within("TrainPerEpoch", refit.TrainPerEpoch, dm.Time.TrainPerEpoch)
	within("Waiting", refit.Waiting, dm.Time.Waiting)
	within("Download", refit.Download, dm.Time.Download)
	within("Upload", refit.Upload, dm.Time.Upload)

	// The measured ledger must agree with the analytic per-phase account of
	// the same rounds.
	want := NewLedger()
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			want.Add(PhaseWaiting, dm.WaitingEnergy())
			want.Add(PhaseDownload, dm.DownloadEnergy())
			want.Add(PhaseTrain, dm.TrainEnergy(e, n))
			want.Add(PhaseUpload, dm.UploadEnergy())
		}
	}
	for _, p := range Phases {
		got, exp := c.Ledger().Phase(p), want.Phase(p)
		if math.Abs(got-exp) > 1e-9*exp {
			t.Errorf("%v ledger = %.9f J, analytic %.9f J", p, got, exp)
		}
	}
	if got, exp := c.Ledger().Total(), want.Total(); math.Abs(got-exp) > 1e-9*exp {
		t.Errorf("ledger total = %.9f J, analytic %.9f J", got, exp)
	}

	// The measured coefficients must land on the model-implied (c0, c1).
	c0, c1, err := c.FitMeasuredCoefficients()
	if err != nil {
		t.Fatalf("FitMeasuredCoefficients: %v", err)
	}
	wc0, wc1 := dm.Coefficients()
	if math.Abs(c0-wc0)/wc0 > 0.01 || math.Abs(c1-wc1)/wc1 > 0.01 {
		t.Errorf("measured coefficients (%.4g, %.4g), model (%.4g, %.4g)", c0, c1, wc0, wc1)
	}

	// Drift against the generating model is zero (sub-0.1% — duration
	// truncation to whole nanoseconds only).
	for _, d := range c.Drift(dm.Time) {
		if math.Abs(d.Pct) > 0.1 {
			t.Errorf("%v drift %.3f%% against the generating model, want ~0", d.Phase, d.Pct)
		}
	}
}

// TestCalibratorReplayMatchesLive pins that replaying persisted stats
// produces the same ledger as observing them live.
func TestCalibratorReplayMatchesLive(t *testing.T) {
	dm := DefaultPiDeviceModel()
	live, err := NewCalibrator(dm.Power, 20, 500)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	var stats []fl.RoundStats
	for r := 0; r < 8; r++ {
		s := roundStatsFor(dm.Time, r, 20, 500)
		s.Total += 3 * time.Millisecond // commit remainder → waiting
		stats = append(stats, s)
		live.ObserveRound(s)
	}
	replayed, err := NewCalibrator(dm.Power, 20, 500)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	replayed.Replay(stats)
	if replayed.Rounds() != live.Rounds() {
		t.Fatalf("replay rounds %d, live %d", replayed.Rounds(), live.Rounds())
	}
	for _, p := range Phases {
		if got, want := replayed.Ledger().Phase(p), live.Ledger().Phase(p); got != want {
			t.Errorf("%v replayed %.9f J, live %.9f J", p, got, want)
		}
	}
	// The 3 ms remainder per round must be charged at waiting power.
	extra := DefaultPiPowerModel().Energy(PhaseWaiting, 3*time.Millisecond) * 8
	base := dm.WaitingEnergy() * 8
	if got := live.Ledger().Phase(PhaseWaiting); math.Abs(got-(base+extra)) > 1e-9 {
		t.Errorf("waiting ledger %.9f J, want %.9f J (remainder charged as waiting)", got, base+extra)
	}
}

// TestCalibratorUniformShapeFallback: with every round at one (E, n) the
// two-coefficient training fit is unidentifiable, so Refit attributes the
// mean training duration to the per-sample term and the coefficient fit
// refuses.
func TestCalibratorUniformShapeFallback(t *testing.T) {
	dm := DefaultPiDeviceModel()
	c, err := NewCalibrator(dm.Power, 40, 2000)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	for r := 0; r < 5; r++ {
		c.ObserveRound(roundStatsFor(dm.Time, r, 40, 2000))
	}
	refit, err := c.Refit()
	if err != nil {
		t.Fatalf("Refit: %v", err)
	}
	wantPerSample := dm.Time.TrainDuration(40, 2000) / time.Duration(40*2000)
	if refit.TrainPerEpoch != 0 || refit.TrainPerSample != wantPerSample {
		t.Errorf("uniform-shape refit (a0=%v, a1=%v), want (a0=%v, a1=0)",
			refit.TrainPerSample, refit.TrainPerEpoch, wantPerSample)
	}
	if _, _, err := c.FitMeasuredCoefficients(); !errors.Is(err, ErrCalibrate) {
		t.Errorf("uniform-shape coefficient fit = %v, want ErrCalibrate", err)
	}
}

func TestCalibratorValidation(t *testing.T) {
	pm := DefaultPiPowerModel()
	if _, err := NewCalibrator(PowerModel{}, 1, 0); !errors.Is(err, ErrPowerModel) {
		t.Errorf("zero power model = %v, want ErrPowerModel", err)
	}
	if _, err := NewCalibrator(pm, 0, 10); !errors.Is(err, ErrCalibrate) {
		t.Errorf("E=0 = %v, want ErrCalibrate", err)
	}
	if _, err := NewCalibrator(pm, 1, -1); !errors.Is(err, ErrCalibrate) {
		t.Errorf("n=-1 = %v, want ErrCalibrate", err)
	}
	c, err := NewCalibrator(pm, 1, 0)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	if err := c.SetRoundShape(0, 1); !errors.Is(err, ErrCalibrate) {
		t.Errorf("SetRoundShape(0,1) = %v, want ErrCalibrate", err)
	}
	if _, err := c.Refit(); !errors.Is(err, ErrCalibrate) {
		t.Errorf("Refit with no rounds = %v, want ErrCalibrate", err)
	}
	if c.Drift(DefaultPiTimeModel()) != nil {
		t.Error("Drift with no rounds must be nil")
	}
}

// TestCalibratorObservationWindow pins the ring semantics: the refit window
// holds the most recent observations once capacity wraps.
func TestCalibratorObservationWindow(t *testing.T) {
	dm := DefaultPiDeviceModel()
	c, err := NewCalibrator(dm.Power, 10, 100, WithObservationWindow(4))
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	shapes := [][2]int{{10, 100}, {10, 500}, {20, 100}, {20, 500}, {40, 100}, {40, 500}}
	for r, sh := range shapes {
		if err := c.SetRoundShape(sh[0], sh[1]); err != nil {
			t.Fatalf("SetRoundShape: %v", err)
		}
		c.ObserveRound(roundStatsFor(dm.Time, r, sh[0], sh[1]))
	}
	obs := c.Observations()
	if len(obs) != 4 {
		t.Fatalf("window holds %d observations, want 4", len(obs))
	}
	seen := map[[2]int]bool{}
	for _, o := range obs {
		seen[[2]int{o.Epochs, o.Samples}] = true
	}
	for _, dropped := range shapes[:2] {
		if seen[dropped] {
			t.Errorf("shape %v should have been evicted from the window", dropped)
		}
	}
	// Ledger and drift still account all six rounds, not just the window.
	if c.Rounds() != len(shapes) {
		t.Errorf("Rounds = %d, want %d", c.Rounds(), len(shapes))
	}
}

// TestCalibratorDoesNotPerturbTraining is the nil-vs-live contract: a run
// with a Calibrator attached is bit-identical to the same seed without one,
// and the calibrator accumulates exactly one record per round.
func TestCalibratorDoesNotPerturbTraining(t *testing.T) {
	run := func(obs fl.RoundObserver) []fl.RoundRecord {
		t.Helper()
		cfg := dataset.QuickSyntheticConfig()
		train, test, err := dataset.SynthesizePair(cfg, cfg)
		if err != nil {
			t.Fatalf("SynthesizePair: %v", err)
		}
		shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 4)
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		engine, err := fl.NewEngine(fl.Config{
			ClientsPerRound: 2, LocalEpochs: 2, LearningRate: 0.1, Seed: 7,
		}, shards, fl.WithTestSet(test))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		engine.SetRoundObserver(obs)
		hist, err := engine.Run(fl.MaxRounds(3))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return hist
	}
	cal, err := NewCalibrator(DefaultPiPowerModel(), 2, 100)
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	withCal := run(cal)
	bare := run(nil)
	if !reflect.DeepEqual(withCal, bare) {
		t.Error("histories with and without a live Calibrator differ")
	}
	if cal.Rounds() != 3 {
		t.Errorf("calibrator observed %d rounds, want 3", cal.Rounds())
	}
	if cal.Ledger().Total() <= 0 {
		t.Error("live rounds must accumulate measured energy")
	}
	if _, err := cal.Refit(); err != nil {
		t.Errorf("Refit over live rounds: %v", err)
	}
}

// TestCalibratorObserveAllocationFree pins the steady-state zero-allocation
// contract of the hot observer path (ring full, ledger keys seeded).
func TestCalibratorObserveAllocationFree(t *testing.T) {
	dm := DefaultPiDeviceModel()
	c, err := NewCalibrator(dm.Power, 40, 2000, WithObservationWindow(8))
	if err != nil {
		t.Fatalf("NewCalibrator: %v", err)
	}
	s := roundStatsFor(dm.Time, 0, 40, 2000)
	for i := 0; i < 16; i++ { // fill and wrap the ring
		c.ObserveRound(s)
	}
	if avg := testing.AllocsPerRun(100, func() { c.ObserveRound(s) }); avg != 0 {
		t.Errorf("ObserveRound allocates %.1f objects/op in steady state, want 0", avg)
	}
}

// BenchmarkCalibratorObserve times the live accounting path;
// TestCalibratorObserveAllocationFree holds it at 0 allocs.
func BenchmarkCalibratorObserve(b *testing.B) {
	dm := DefaultPiDeviceModel()
	c, err := NewCalibrator(dm.Power, 40, 2000)
	if err != nil {
		b.Fatalf("NewCalibrator: %v", err)
	}
	s := fl.RoundStats{
		Round: 0, Select: time.Millisecond, Train: 40 * time.Millisecond,
		Aggregate: 2 * time.Millisecond, Evaluate: 10 * time.Millisecond,
		Total: 54 * time.Millisecond,
	}
	// Warmup: fill the observation ring so the timed loop is steady-state.
	for i := 0; i < 300; i++ {
		c.ObserveRound(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveRound(s)
	}
}
