package energy

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestFitCoefficientsRecoversPaperValues(t *testing.T) {
	// Fitting the paper's own Table I must reproduce the published
	// c0 = 7.79e-5 and c1 = 3.34e-3 (Section VI-B) within a few percent.
	c0, c1, err := FitCoefficients(PaperTableI())
	if err != nil {
		t.Fatalf("FitCoefficients: %v", err)
	}
	if math.Abs(c0-7.79e-5)/7.79e-5 > 0.05 {
		t.Errorf("c0 = %.4g, want within 5%% of 7.79e-5", c0)
	}
	if math.Abs(c1-3.34e-3)/3.34e-3 > 0.25 {
		// The intercept is small relative to the slope term, so the fit is
		// looser here — the paper's own fit carries the same sensitivity.
		t.Errorf("c1 = %.4g, want within 25%% of 3.34e-3", c1)
	}
}

func TestFitDurationsRecoversTimeModel(t *testing.T) {
	tm := DefaultPiTimeModel()
	var obs []TrainObservation
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			obs = append(obs, TrainObservation{
				Epochs:   e,
				Samples:  n,
				Duration: tm.TrainDuration(e, n),
			})
		}
	}
	perSample, perEpoch, err := FitDurations(obs)
	if err != nil {
		t.Fatalf("FitDurations: %v", err)
	}
	if math.Abs(perSample.Seconds()-tm.TrainPerSample.Seconds())/tm.TrainPerSample.Seconds() > 0.01 {
		t.Errorf("perSample = %v, want %v", perSample, tm.TrainPerSample)
	}
	if math.Abs(perEpoch.Seconds()-tm.TrainPerEpoch.Seconds())/tm.TrainPerEpoch.Seconds() > 0.01 {
		t.Errorf("perEpoch = %v, want %v", perEpoch, tm.TrainPerEpoch)
	}
}

func TestFitRejectsDegenerateInput(t *testing.T) {
	if _, _, err := FitCoefficients(nil); !errors.Is(err, ErrFit) {
		t.Errorf("no observations = %v, want ErrFit", err)
	}
	bad := []TrainObservation{{Epochs: 0, Samples: 10}, {Epochs: 1, Samples: 10}}
	if _, _, err := FitCoefficients(bad); !errors.Is(err, ErrFit) {
		t.Errorf("zero epochs = %v, want ErrFit", err)
	}
	if _, _, err := FitDurations(bad); !errors.Is(err, ErrFit) {
		t.Errorf("FitDurations zero epochs = %v, want ErrFit", err)
	}
}

func TestMeasureTrainingClosesTheLoop(t *testing.T) {
	// Measure synthetic runs with the meter, fit, and compare against the
	// device model's analytic coefficients — the full calibration loop.
	dm := DefaultPiDeviceModel()
	dm.Power.NoiseStdDev = 0.02
	meter, err := NewMeter(dm.Power, 1000, 5)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	var obs []TrainObservation
	for _, e := range []int{10, 20, 40} {
		for _, n := range []int{100, 500, 1000, 2000} {
			o, err := MeasureTraining(meter, dm.Time, e, n)
			if err != nil {
				t.Fatalf("MeasureTraining: %v", err)
			}
			obs = append(obs, o)
		}
	}
	c0, c1, err := FitCoefficients(obs)
	if err != nil {
		t.Fatalf("FitCoefficients: %v", err)
	}
	wantC0, wantC1 := dm.Coefficients()
	if math.Abs(c0-wantC0)/wantC0 > 0.05 {
		t.Errorf("measured c0 = %.4g, want ≈%.4g", c0, wantC0)
	}
	if math.Abs(c1-wantC1)/wantC1 > 0.30 {
		t.Errorf("measured c1 = %.4g, want ≈%.4g", c1, wantC1)
	}
}

func TestPaperTableIShape(t *testing.T) {
	rows := PaperTableI()
	if len(rows) != 12 {
		t.Fatalf("Table I has %d rows, want 12", len(rows))
	}
	// Spot-check the corners against the published table.
	first, last := rows[0], rows[11]
	if first.Epochs != 10 || first.Samples != 100 || first.Duration != time.Duration(0.0197*float64(time.Second)) {
		t.Errorf("first row = %+v", first)
	}
	if last.Epochs != 40 || last.Samples != 2000 {
		t.Errorf("last row = %+v", last)
	}
	// Energy consistency: joules = 5.553 × seconds.
	for _, r := range rows {
		if math.Abs(r.Joules-5.553*r.Duration.Seconds()) > 1e-9 {
			t.Errorf("row %+v joules inconsistent", r)
		}
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	l.Add(PhaseTrain, 2)
	l.Add(PhaseTrain, 3)
	l.Add(PhaseUpload, 1)
	l.AddRound()
	if l.Phase(PhaseTrain) != 5 {
		t.Errorf("train = %v, want 5", l.Phase(PhaseTrain))
	}
	if l.Total() != 6 {
		t.Errorf("total = %v, want 6", l.Total())
	}
	if l.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", l.Rounds())
	}
	if l.String() == "" {
		t.Error("String must render")
	}
}

// TestLedgerTotalDeterministic pins that Total sums phases in a fixed order.
// The phase values are chosen so that float addition order changes the last
// bits; ranging over the map (whose iteration order is randomized per range)
// would make repeated Total calls on one ledger disagree — the bug that made
// same-config simulations differ in their energy totals.
func TestLedgerTotalDeterministic(t *testing.T) {
	l := NewLedger()
	l.Add(PhaseWaiting, 1e16)
	l.Add(PhaseDownload, 1.1)
	l.Add(PhaseTrain, -1e16)
	l.Add(PhaseUpload, 0.3)
	want := ((l.Phase(PhaseWaiting) + l.Phase(PhaseDownload)) + l.Phase(PhaseTrain)) + l.Phase(PhaseUpload)
	for i := 0; i < 100; i++ {
		if got := l.Total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Total = %x, want canonical-order sum %x",
				i, math.Float64bits(got), math.Float64bits(want))
		}
	}
	// Out-of-enum phases still count, after the canonical four.
	l.Add(Phase(99), 2.5)
	l.Add(Phase(42), 1.5)
	want = ((want + l.Phase(Phase(42))) + l.Phase(Phase(99)))
	for i := 0; i < 100; i++ {
		if got := l.Total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d with extras: Total = %v, want %v", i, got, want)
		}
	}
}
