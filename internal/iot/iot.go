// Package iot models the data-collection side of the FEI system: fleets of
// low-cost sensing devices uploading fixed-size samples to their edge
// server. Following the paper's Section IV-A, each upload costs a constant
// energy ρ per sample (NB-IoT: 7.74 mWs per byte), and devices on the
// unlicensed band suffer a fixed success probability per attempt due to
// collisions, which inflates the expected energy per *delivered* sample to
// ρ/p — still a constant, preserving Eq. (4): e^I_k(n_k) = ρ_k·n_k.
package iot

import (
	"errors"
	"fmt"

	"eefei/internal/mat"
)

// NBIoTJoulesPerByte is the paper's NB-IoT figure: 7.74 mWs (= mJ) per byte.
const NBIoTJoulesPerByte = 7.74e-3

// ErrUplink is returned (wrapped) for invalid uplink configurations.
var ErrUplink = errors.New("iot: invalid uplink config")

// Band selects the radio regime of a device fleet.
type Band int

const (
	// Licensed is a scheduled band (e.g. NB-IoT): every attempt succeeds.
	Licensed Band = iota + 1
	// Unlicensed is a contention band: attempts succeed with a fixed
	// probability, so delivering a sample costs a geometric number of
	// attempts.
	Unlicensed
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case Licensed:
		return "licensed"
	case Unlicensed:
		return "unlicensed"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// UplinkConfig describes how one edge server's IoT fleet uploads samples.
type UplinkConfig struct {
	// SampleBytes is the wire size of one data sample. An MNIST-like
	// 28×28 gray-scale image with a label is 785 bytes.
	SampleBytes int
	// JoulesPerByte is the transmit energy per byte (ρ per byte).
	JoulesPerByte float64
	// Band selects the radio regime.
	Band Band
	// SuccessProb is the per-attempt delivery probability on the
	// unlicensed band; ignored for Licensed. The paper's model assumes it
	// is a fixed constant given static device positions.
	SuccessProb float64
}

// DefaultNBIoTConfig is the paper's reference uplink: NB-IoT (licensed) at
// 7.74 mJ per byte with 785-byte samples.
func DefaultNBIoTConfig() UplinkConfig {
	return UplinkConfig{
		SampleBytes:   785,
		JoulesPerByte: NBIoTJoulesPerByte,
		Band:          Licensed,
		SuccessProb:   1,
	}
}

// Validate checks the configuration.
func (c UplinkConfig) Validate() error {
	if c.SampleBytes <= 0 {
		return fmt.Errorf("sample bytes %d: %w", c.SampleBytes, ErrUplink)
	}
	if c.JoulesPerByte <= 0 {
		return fmt.Errorf("joules per byte %v: %w", c.JoulesPerByte, ErrUplink)
	}
	switch c.Band {
	case Licensed:
	case Unlicensed:
		if c.SuccessProb <= 0 || c.SuccessProb > 1 {
			return fmt.Errorf("success probability %v outside (0,1]: %w", c.SuccessProb, ErrUplink)
		}
	default:
		return fmt.Errorf("band %v: %w", c.Band, ErrUplink)
	}
	return nil
}

// Rho returns ρ_k, the expected energy to deliver one sample (paper Eq. 4):
// the per-attempt energy divided by the delivery probability.
func (c UplinkConfig) Rho() float64 {
	perAttempt := float64(c.SampleBytes) * c.JoulesPerByte
	if c.Band == Unlicensed && c.SuccessProb > 0 {
		return perAttempt / c.SuccessProb
	}
	return perAttempt
}

// CollectionEnergy returns e^I_k(n) = ρ_k·n, the expected energy for the
// fleet to deliver n samples.
func (c UplinkConfig) CollectionEnergy(samples int) float64 {
	if samples <= 0 {
		return 0
	}
	return c.Rho() * float64(samples)
}

// Fleet is the devices attached to one edge server; it simulates the
// stochastic attempt process so experiments can verify that the constant-ρ
// abstraction matches the simulated mean.
type Fleet struct {
	cfg UplinkConfig
	rng *mat.RNG
}

// NewFleet returns a fleet whose uplinks follow cfg.
func NewFleet(cfg UplinkConfig, seed uint64) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{cfg: cfg, rng: mat.NewRNG(seed)}, nil
}

// Collect simulates delivering n samples: each sample is retried until an
// attempt succeeds (licensed band always succeeds on the first attempt).
// It returns the actual energy spent, which for the unlicensed band is a
// random variable with mean CollectionEnergy(n).
func (f *Fleet) Collect(samples int) (joules float64, err error) {
	if samples < 0 {
		return 0, fmt.Errorf("collect %d samples: %w", samples, ErrUplink)
	}
	perAttempt := float64(f.cfg.SampleBytes) * f.cfg.JoulesPerByte
	for i := 0; i < samples; i++ {
		for {
			joules += perAttempt
			if f.cfg.Band == Licensed || f.rng.Bernoulli(f.cfg.SuccessProb) {
				break
			}
		}
	}
	return joules, nil
}
