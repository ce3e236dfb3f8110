package energy

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func noiselessMeter(t *testing.T) *Meter {
	t.Helper()
	pm := DefaultPiPowerModel()
	pm.NoiseStdDev = 0
	m, err := NewMeter(pm, 1000, 1)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	return m
}

func TestNewMeterValidation(t *testing.T) {
	pm := DefaultPiPowerModel()
	if _, err := NewMeter(pm, 0, 1); !errors.Is(err, ErrTrace) {
		t.Errorf("zero rate = %v, want ErrTrace", err)
	}
	pm.Train = -1
	if _, err := NewMeter(pm, 1000, 1); err == nil {
		t.Error("invalid power model must be rejected")
	}
}

func TestRecordConstantPhase(t *testing.T) {
	m := noiselessMeter(t)
	trace, err := m.Record([]Interval{{Phase: PhaseTrain, Start: 0, End: time.Second}})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := trace.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 1 second at 1 kHz → 1001 samples including both endpoints.
	if len(trace.Samples) != 1001 {
		t.Errorf("samples = %d, want 1001", len(trace.Samples))
	}
	// Energy of 5.553 W for 1 s is 5.553 J.
	if got := trace.Energy(); math.Abs(got-5.553) > 1e-9 {
		t.Errorf("Energy = %v, want 5.553", got)
	}
	if got := trace.MeanPowerBetween(0, trace.Duration()); math.Abs(got-5.553) > 1e-9 {
		t.Errorf("MeanPowerBetween = %v, want 5.553", got)
	}
}

func TestRecordEmptySchedule(t *testing.T) {
	m := noiselessMeter(t)
	if _, err := m.Record(nil); !errors.Is(err, ErrTrace) {
		t.Errorf("empty schedule = %v, want ErrTrace", err)
	}
}

func TestRecordRejectsInvertedInterval(t *testing.T) {
	m := noiselessMeter(t)
	bad := []Interval{{Phase: PhaseTrain, Start: time.Second, End: 0}}
	if _, err := m.Record(bad); !errors.Is(err, ErrTrace) {
		t.Errorf("inverted interval = %v, want ErrTrace", err)
	}
}

func TestEnergyBetweenSubInterval(t *testing.T) {
	m := noiselessMeter(t)
	trace, err := m.Record([]Interval{{Phase: PhaseWaiting, Start: 0, End: 2 * time.Second}})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	// Half the window → half the energy (3.6 W × 1 s).
	got := trace.EnergyBetween(500*time.Millisecond, 1500*time.Millisecond)
	if math.Abs(got-3.6) > 1e-9 {
		t.Errorf("EnergyBetween = %v, want 3.6", got)
	}
	// Degenerate and inverted windows.
	if trace.EnergyBetween(time.Second, time.Second) != 0 {
		t.Error("zero-width window must integrate to 0")
	}
	if trace.EnergyBetween(2*time.Second, time.Second) != 0 {
		t.Error("inverted window must integrate to 0")
	}
}

func TestEnergyAdditivity(t *testing.T) {
	m := noiselessMeter(t)
	sched := RoundSchedule(DefaultPiTimeModel(), 10, 500, 1)
	trace, err := m.Record(sched)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	mid := trace.Duration() / 2
	left := trace.EnergyBetween(0, mid)
	right := trace.EnergyBetween(mid, trace.Duration())
	if math.Abs(left+right-trace.Energy()) > 1e-9 {
		t.Errorf("split integration %v + %v != total %v", left, right, trace.Energy())
	}
}

func TestRoundScheduleStructure(t *testing.T) {
	tm := DefaultPiTimeModel()
	sched := RoundSchedule(tm, 20, 1000, 2)
	if len(sched) != 8 {
		t.Fatalf("schedule has %d intervals, want 8 (4 phases × 2 rounds)", len(sched))
	}
	// Contiguity.
	for i := 1; i < len(sched); i++ {
		if sched[i].Start != sched[i-1].End {
			t.Fatalf("gap between interval %d and %d", i-1, i)
		}
	}
	// Phase cycle.
	for i, iv := range sched {
		if iv.Phase != Phases[i%4] {
			t.Errorf("interval %d phase = %v, want %v", i, iv.Phase, Phases[i%4])
		}
	}
	// Training interval length matches the law.
	if got := sched[2].Duration(); got != tm.TrainDuration(20, 1000) {
		t.Errorf("train interval = %v, want %v", got, tm.TrainDuration(20, 1000))
	}
}

func TestRecordedRoundEnergyMatchesDeviceModel(t *testing.T) {
	// Integrating a noiseless recorded round must equal the analytic
	// DeviceModel.RoundEnergy within discretization error.
	dm := DefaultPiDeviceModel()
	dm.Power.NoiseStdDev = 0
	m, err := NewMeter(dm.Power, 10000, 1)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	sched := RoundSchedule(dm.Time, 10, 1000, 1)
	trace, err := m.Record(sched)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	got := trace.Energy()
	want := dm.RoundEnergy(10, 1000)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("trace energy %v vs analytic %v (>1%% apart)", got, want)
	}
}

func TestNoisyTraceMeanConverges(t *testing.T) {
	pm := DefaultPiPowerModel() // 0.05 W noise
	m, err := NewMeter(pm, 1000, 42)
	if err != nil {
		t.Fatalf("NewMeter: %v", err)
	}
	trace, err := m.Record([]Interval{{Phase: PhaseTrain, Start: 0, End: 5 * time.Second}})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if got := trace.MeanPowerBetween(0, trace.Duration()); math.Abs(got-5.553) > 0.01 {
		t.Errorf("noisy mean power = %v, want ≈5.553", got)
	}
}

// TestMeanPowerOffsetStart pins the mean over a trace's covered span: a
// trace whose first sample sits at T0 > 0 (Validate accepts it) averages its
// own power over [first, last]. EnergyBetween integrates nothing before the
// first sample, so a window from 0 would report a constant 5 W capture that
// starts at 1 s as 2.5 W.
func TestMeanPowerOffsetStart(t *testing.T) {
	covered := func(tr *Trace) float64 {
		return tr.MeanPowerBetween(tr.Samples[0].T, tr.Duration())
	}
	offset := &Trace{SampleRate: 1000, Samples: []Sample{
		{T: time.Second, Watts: 5},
		{T: 1500 * time.Millisecond, Watts: 5},
		{T: 2 * time.Second, Watts: 5},
	}}
	if err := offset.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := covered(offset); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean power of constant 5 W trace starting at 1s = %v, want 5", got)
	}
	anchored := &Trace{SampleRate: 1000, Samples: []Sample{
		{T: 0, Watts: 5}, {T: time.Second, Watts: 5},
	}}
	if got := covered(anchored); math.Abs(got-5) > 1e-12 {
		t.Errorf("anchored mean power = %v, want 5", got)
	}
	// Degenerate spans report 0 instead of dividing by zero.
	single := &Trace{SampleRate: 1000, Samples: []Sample{{T: time.Second, Watts: 5}}}
	if got := covered(single); got != 0 {
		t.Errorf("single-sample mean power = %v, want 0", got)
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{SampleRate: 1000, Samples: []Sample{{0, 1}, {time.Millisecond, 2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	outOfOrder := &Trace{SampleRate: 1000, Samples: []Sample{{time.Millisecond, 1}, {0, 2}}}
	if err := outOfOrder.Validate(); !errors.Is(err, ErrTrace) {
		t.Errorf("out of order = %v, want ErrTrace", err)
	}
	negPower := &Trace{SampleRate: 1000, Samples: []Sample{{0, -1}}}
	if err := negPower.Validate(); !errors.Is(err, ErrTrace) {
		t.Errorf("negative power = %v, want ErrTrace", err)
	}
	badRate := &Trace{SampleRate: 0}
	if err := badRate.Validate(); !errors.Is(err, ErrTrace) {
		t.Errorf("bad rate = %v, want ErrTrace", err)
	}
}

func TestEmptyTraceDegenerates(t *testing.T) {
	tr := &Trace{SampleRate: 1000}
	if tr.Duration() != 0 || tr.Energy() != 0 || tr.MeanPowerBetween(0, tr.Duration()) != 0 {
		t.Error("empty trace must report zeros")
	}
}

// Property: trace energy is non-negative and bounded by maxPower × duration.
func TestEnergyBoundsProperty(t *testing.T) {
	f := func(seed uint64, epochsRaw, samplesRaw uint8) bool {
		epochs := 1 + int(epochsRaw%40)
		samples := 10 + int(samplesRaw)*10
		pm := DefaultPiPowerModel()
		m, err := NewMeter(pm, 200, seed)
		if err != nil {
			return false
		}
		sched := RoundSchedule(DefaultPiTimeModel(), epochs, samples, 1)
		trace, err := m.Record(sched)
		if err != nil {
			return false
		}
		e := trace.Energy()
		maxP := pm.Train + 5*pm.NoiseStdDev
		return e >= 0 && e <= maxP*trace.Duration().Seconds()*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMeanPowerBetween(t *testing.T) {
	m := noiselessMeter(t)
	// One second of waiting followed by one second of training.
	trace, err := m.Record([]Interval{
		{Phase: PhaseWaiting, Start: 0, End: time.Second},
		{Phase: PhaseTrain, Start: time.Second, End: 2 * time.Second},
	})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if got := trace.MeanPowerBetween(0, time.Second); math.Abs(got-3.6) > 0.01 {
		t.Errorf("waiting window mean = %v, want ≈3.6", got)
	}
	if got := trace.MeanPowerBetween(time.Second+time.Millisecond, 2*time.Second); math.Abs(got-5.553) > 0.01 {
		t.Errorf("training window mean = %v, want ≈5.553", got)
	}
	if trace.MeanPowerBetween(time.Second, time.Second) != 0 {
		t.Error("zero-width window must report 0")
	}
}

func TestEnergyBetweenInterpolatesOffSampleBoundaries(t *testing.T) {
	// Windows that start and end between samples exercise the linear
	// interpolation path.
	trace := &Trace{SampleRate: 10, Samples: []Sample{
		{T: 0, Watts: 0},
		{T: time.Second, Watts: 10},
	}}
	// ∫ over [0.25s, 0.75s] of the ramp P(t)=10t is [5t²] = 5(0.5625−0.0625) = 2.5.
	got := trace.EnergyBetween(250*time.Millisecond, 750*time.Millisecond)
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("interpolated energy = %v, want 2.5", got)
	}
}
