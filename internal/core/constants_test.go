package core

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/energy"
	"eefei/internal/iot"
)

func TestBoundConstantsValidate(t *testing.T) {
	if err := DefaultBoundConstants().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := []BoundConstants{
		{A0: 0, A1: 1, A2: 1},
		{A0: 1, A1: 0, A2: 1},
		{A0: 1, A1: 1, A2: -1},
		{A0: math.NaN(), A1: 1, A2: 1},
		{A0: 1, A1: math.Inf(1), A2: 1},
		{A0: 1, A1: 1, A2: math.NaN()},
	}
	for _, b := range bad {
		if err := b.Validate(); !errors.Is(err, ErrParams) {
			t.Errorf("%+v: err = %v, want ErrParams", b, err)
		}
	}
}

func TestGapEquation10(t *testing.T) {
	b := BoundConstants{A0: 10, A1: 2, A2: 0.5}
	// A0/(TE) + A1/K + A2(E−1) = 10/20 + 2/4 + 0.5·1 = 1.5
	if got := b.Gap(4, 2, 10); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Gap = %v, want 1.5", got)
	}
}

func TestGapMonotonicity(t *testing.T) {
	b := DefaultBoundConstants()
	base := b.Gap(5, 10, 50)
	if b.Gap(10, 10, 50) >= base {
		t.Error("gap must shrink as K grows")
	}
	if b.Gap(5, 10, 100) >= base {
		t.Error("gap must shrink as T grows")
	}
	// E has two competing terms; at large E the A2 term dominates and the
	// gap grows.
	if b.Gap(5, 1e6, 50) <= base {
		t.Error("gap must eventually grow with E")
	}
}

func TestPhysicalConstantsAggregate(t *testing.T) {
	p := PhysicalConstants{
		Alpha0:                4,
		Alpha1:                2,
		Alpha2:                8,
		InitialDistanceSq:     9,
		LearningRate:          0.5,
		GradientVarianceAtOpt: 3,
		Smoothness:            2,
	}
	b, err := p.Aggregate()
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if math.Abs(b.A0-72) > 1e-12 { // 4·9/0.5
		t.Errorf("A0 = %v, want 72", b.A0)
	}
	if math.Abs(b.A1-3) > 1e-12 { // 2·0.5·3
		t.Errorf("A1 = %v, want 3", b.A1)
	}
	if math.Abs(b.A2-12) > 1e-12 { // 8·0.25·2·3
		t.Errorf("A2 = %v, want 12", b.A2)
	}
	p.LearningRate = 0
	if _, err := p.Aggregate(); !errors.Is(err, ErrParams) {
		t.Errorf("zero lr = %v, want ErrParams", err)
	}
}

func TestEnergyParamsPerRound(t *testing.T) {
	p := EnergyParams{B0: 2, B1: 3}
	if got := p.PerRound(5); got != 13 {
		t.Errorf("PerRound(5) = %v, want 13", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (EnergyParams{B0: 0, B1: 1}).Validate(); !errors.Is(err, ErrParams) {
		t.Error("B0=0 must be invalid")
	}
}

func TestNewEnergyParamsPreloaded(t *testing.T) {
	dm := energy.DefaultPiDeviceModel()
	up := iot.DefaultNBIoTConfig()
	p, err := NewEnergyParams(dm, up, 3000, true)
	if err != nil {
		t.Fatalf("NewEnergyParams: %v", err)
	}
	c0, c1 := dm.Coefficients()
	wantB0 := c0*3000 + c1
	if math.Abs(p.B0-wantB0) > 1e-12 {
		t.Errorf("B0 = %v, want %v", p.B0, wantB0)
	}
	if math.Abs(p.B1-dm.UploadEnergy()) > 1e-12 {
		t.Errorf("preloaded B1 = %v, want upload energy %v", p.B1, dm.UploadEnergy())
	}
	// The default problem's constants are exactly this derivation.
	if def := DefaultEnergyParams(); math.Abs(p.B0-def.B0) > 1e-12 || math.Abs(p.B1-def.B1) > 1e-12 {
		t.Errorf("derived %+v, default %+v", p, def)
	}
}

func TestNewEnergyParamsWithCollection(t *testing.T) {
	dm := energy.DefaultPiDeviceModel()
	up := iot.DefaultNBIoTConfig()
	pre, err := NewEnergyParams(dm, up, 3000, true)
	if err != nil {
		t.Fatalf("NewEnergyParams: %v", err)
	}
	full, err := NewEnergyParams(dm, up, 3000, false)
	if err != nil {
		t.Fatalf("NewEnergyParams: %v", err)
	}
	wantExtra := up.CollectionEnergy(3000)
	if math.Abs(full.B1-pre.B1-wantExtra) > 1e-9 {
		t.Errorf("collection term = %v, want %v", full.B1-pre.B1, wantExtra)
	}
}

func TestNewEnergyParamsErrors(t *testing.T) {
	dm := energy.DefaultPiDeviceModel()
	up := iot.DefaultNBIoTConfig()
	if _, err := NewEnergyParams(dm, up, 0, true); !errors.Is(err, ErrParams) {
		t.Errorf("zero samples = %v, want ErrParams", err)
	}
	dm.Power.Train = -1
	if _, err := NewEnergyParams(dm, up, 100, true); err == nil {
		t.Error("bad device model must be rejected")
	}
	up.SampleBytes = 0
	if _, err := NewEnergyParams(energy.DefaultPiDeviceModel(), up, 100, true); err == nil {
		t.Error("bad uplink must be rejected")
	}
}

func TestFitBoundConstantsRecoversKnownModel(t *testing.T) {
	truth := BoundConstants{A0: 120, A1: 0.05, A2: 3e-4}
	var obs []GapObservation
	for _, k := range []int{1, 2, 5, 10, 20} {
		for _, e := range []int{1, 10, 40, 100} {
			for _, tt := range []int{10, 50, 200} {
				obs = append(obs, GapObservation{
					K: k, E: e, T: tt,
					Gap: truth.Gap(float64(k), float64(e), float64(tt)),
				})
			}
		}
	}
	got, err := FitBoundConstants(obs)
	if err != nil {
		t.Fatalf("FitBoundConstants: %v", err)
	}
	if math.Abs(got.A0-truth.A0)/truth.A0 > 1e-6 ||
		math.Abs(got.A1-truth.A1)/truth.A1 > 1e-6 ||
		math.Abs(got.A2-truth.A2)/truth.A2 > 1e-6 {
		t.Errorf("fit = %+v, want %+v", got, truth)
	}
}

func TestFitBoundConstantsErrors(t *testing.T) {
	if _, err := FitBoundConstants(nil); !errors.Is(err, ErrParams) {
		t.Errorf("no observations = %v, want ErrParams", err)
	}
	bad := []GapObservation{{K: 0, E: 1, T: 1}, {K: 1, E: 1, T: 1}, {K: 2, E: 1, T: 1}}
	if _, err := FitBoundConstants(bad); !errors.Is(err, ErrParams) {
		t.Errorf("K=0 observation = %v, want ErrParams", err)
	}
}

func TestFitBoundConstantsClampsNegatives(t *testing.T) {
	// Gaps that decrease with (E−1) would fit a negative A2; the fit must
	// clamp it to zero.
	obs := []GapObservation{
		{K: 1, E: 1, T: 10, Gap: 1.0},
		{K: 1, E: 10, T: 10, Gap: 0.05},
		{K: 2, E: 20, T: 10, Gap: 0.01},
		{K: 5, E: 40, T: 20, Gap: 0.001},
	}
	b, err := FitBoundConstants(obs)
	if err != nil {
		t.Fatalf("FitBoundConstants: %v", err)
	}
	if b.A2 < 0 || b.A0 <= 0 || b.A1 <= 0 {
		t.Errorf("fit not clamped: %+v", b)
	}
}
