package iot

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBandString(t *testing.T) {
	if Licensed.String() != "licensed" || Unlicensed.String() != "unlicensed" {
		t.Error("band names wrong")
	}
	if Band(9).String() == "" {
		t.Error("unknown band must still print")
	}
}

func TestDefaultNBIoTConfig(t *testing.T) {
	cfg := DefaultNBIoTConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// ρ = 785 bytes × 7.74 mJ/byte ≈ 6.08 J per sample.
	want := 785 * 7.74e-3
	if math.Abs(cfg.Rho()-want) > 1e-12 {
		t.Errorf("Rho = %v, want %v", cfg.Rho(), want)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*UplinkConfig)
		wantErr bool
	}{
		{"default", func(*UplinkConfig) {}, false},
		{"zero bytes", func(c *UplinkConfig) { c.SampleBytes = 0 }, true},
		{"zero energy", func(c *UplinkConfig) { c.JoulesPerByte = 0 }, true},
		{"bad band", func(c *UplinkConfig) { c.Band = Band(7) }, true},
		{"unlicensed ok", func(c *UplinkConfig) { c.Band = Unlicensed; c.SuccessProb = 0.5 }, false},
		{"unlicensed zero prob", func(c *UplinkConfig) { c.Band = Unlicensed; c.SuccessProb = 0 }, true},
		{"unlicensed prob above 1", func(c *UplinkConfig) { c.Band = Unlicensed; c.SuccessProb = 1.5 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultNBIoTConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRhoUnlicensedInflation(t *testing.T) {
	cfg := DefaultNBIoTConfig()
	cfg.Band = Unlicensed
	cfg.SuccessProb = 0.5
	licensed := DefaultNBIoTConfig().Rho()
	if got := cfg.Rho(); math.Abs(got-2*licensed) > 1e-12 {
		t.Errorf("Rho at p=0.5 = %v, want %v (doubled)", got, 2*licensed)
	}
}

func TestCollectionEnergyLinear(t *testing.T) {
	cfg := DefaultNBIoTConfig()
	// Eq. 4: e^I(n) = ρ·n, exactly linear.
	if got := cfg.CollectionEnergy(3000); math.Abs(got-3000*cfg.Rho()) > 1e-9 {
		t.Errorf("CollectionEnergy(3000) = %v", got)
	}
	if cfg.CollectionEnergy(0) != 0 || cfg.CollectionEnergy(-5) != 0 {
		t.Error("non-positive n must cost 0")
	}
}

func TestNewFleetValidation(t *testing.T) {
	cfg := DefaultNBIoTConfig()
	cfg.SampleBytes = 0
	if _, err := NewFleet(cfg, 1); err == nil {
		t.Error("bad config must be rejected")
	}
}

func TestFleetCollectLicensedIsExact(t *testing.T) {
	fleet, err := NewFleet(DefaultNBIoTConfig(), 1)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	j, err := fleet.Collect(100)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	cfg := DefaultNBIoTConfig()
	want := cfg.CollectionEnergy(100)
	if math.Abs(j-want) > 1e-9 {
		t.Errorf("licensed Collect = %v, want %v exactly", j, want)
	}
	if a := attempts(cfg, j); a != 100 {
		t.Errorf("%d attempts, want 100", a)
	}
}

func TestFleetCollectUnlicensedMeanMatchesRho(t *testing.T) {
	cfg := DefaultNBIoTConfig()
	cfg.Band = Unlicensed
	cfg.SuccessProb = 0.6
	fleet, err := NewFleet(cfg, 2)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	const n = 20000
	j, err := fleet.Collect(n)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	want := cfg.CollectionEnergy(n)
	if math.Abs(j-want)/want > 0.02 {
		t.Errorf("unlicensed mean energy = %v, want ≈%v", j, want)
	}
	if p := float64(n) / float64(attempts(cfg, j)); math.Abs(p-0.6) > 0.02 {
		t.Errorf("empirical success prob = %v, want ≈0.6", p)
	}
}

func TestFleetCollectNegative(t *testing.T) {
	fleet, err := NewFleet(DefaultNBIoTConfig(), 1)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if _, err := fleet.Collect(-1); !errors.Is(err, ErrUplink) {
		t.Errorf("negative collect = %v, want ErrUplink", err)
	}
}

// attempts recovers how many uplink attempts a Collect made from the joules
// it spent: every attempt costs SampleBytes·JoulesPerByte.
func attempts(cfg UplinkConfig, joules float64) int64 {
	return int64(math.Round(joules / (float64(cfg.SampleBytes) * cfg.JoulesPerByte)))
}

// Property: collection energy is monotone in n and exactly linear.
func TestCollectionEnergyLinearityProperty(t *testing.T) {
	f := func(nRaw uint16, probRaw uint8) bool {
		n := int(nRaw % 5000)
		cfg := DefaultNBIoTConfig()
		cfg.Band = Unlicensed
		cfg.SuccessProb = 0.05 + 0.95*float64(probRaw)/255
		single := cfg.CollectionEnergy(1)
		batch := cfg.CollectionEnergy(n)
		return math.Abs(batch-single*float64(n)) < 1e-6*(1+batch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
