// Package core implements the paper's primary contribution: the EE-FEI
// energy-consumption model (Eqs. 4–6, 12), the local-SGD convergence bound
// it rests on (Eq. 10, from Khaled–Mishchenko–Richtárik 2020), the
// closed-form partial optimizers K*(E) and E*(K) (Eq. 15 and the corrected
// Eq. 17 — see DESIGN.md §1 for the re-derivation), the required-rounds
// formula T*(K,E) (Eq. 11), and the Alternate-Convex-Search planner
// (Algorithm 1) that jointly minimizes total training energy.
package core

import (
	"errors"
	"fmt"
	"math"

	"eefei/internal/energy"
	"eefei/internal/iot"
	"eefei/internal/mat"
)

// ErrParams is returned (wrapped) for invalid model constants.
var ErrParams = errors.New("core: invalid parameters")

// ErrInfeasible is returned (wrapped) when the convergence constraint
// (Eq. 13c) cannot be satisfied on the requested domain.
var ErrInfeasible = errors.New("core: convergence constraint infeasible")

// BoundConstants are the aggregated constants of the convergence bound
// (paper Eq. 10):
//
//	E[F(ω̄_T) − F(ω*)] ≤ A0/(T·E) + A1/K + A2·(E−1)
//
// with A0 = α0‖ω0−ω*‖²/γ, A1 = α1·γ·σ² and A2 = α2·γ²·L·σ².
type BoundConstants struct {
	A0, A1, A2 float64
}

// Validate checks that the constants are finite and positive (A2 may be
// zero for homogeneous-gradient regimes; A0 and A1 must be positive for the
// bound to be meaningful).
func (b BoundConstants) Validate() error {
	if !(b.A0 > 0 && b.A1 > 0 && b.A2 >= 0) || math.IsInf(b.A0+b.A1+b.A2, 1) {
		return fmt.Errorf("bound constants %+v: %w", b, ErrParams)
	}
	return nil
}

// Gap evaluates the right-hand side of Eq. (10) for a given (K, E, T).
func (b BoundConstants) Gap(k, e, t float64) float64 {
	return b.A0/(t*e) + b.A1/k + b.A2*(e-1)
}

// PhysicalConstants are the raw quantities behind the aggregate bound
// constants, exposed so experiments can explore the γ/σ²/L dependence.
type PhysicalConstants struct {
	// Alpha0, Alpha1, Alpha2 are the bound's universal constants.
	Alpha0, Alpha1, Alpha2 float64
	// InitialDistanceSq is ‖ω0 − ω*‖².
	InitialDistanceSq float64
	// LearningRate is γ.
	LearningRate float64
	// GradientVarianceAtOpt is σ², the variance of stochastic gradients at
	// the optimum.
	GradientVarianceAtOpt float64
	// Smoothness is L.
	Smoothness float64
}

// Aggregate folds the physical constants into (A0, A1, A2).
func (p PhysicalConstants) Aggregate() (BoundConstants, error) {
	if p.LearningRate <= 0 || p.InitialDistanceSq <= 0 || p.GradientVarianceAtOpt < 0 ||
		p.Smoothness < 0 || p.Alpha0 <= 0 || p.Alpha1 < 0 || p.Alpha2 < 0 {
		return BoundConstants{}, fmt.Errorf("physical constants %+v: %w", p, ErrParams)
	}
	return BoundConstants{
		A0: p.Alpha0 * p.InitialDistanceSq / p.LearningRate,
		A1: p.Alpha1 * p.LearningRate * p.GradientVarianceAtOpt,
		A2: p.Alpha2 * p.LearningRate * p.LearningRate * p.Smoothness * p.GradientVarianceAtOpt,
	}, nil
}

// DefaultBoundConstants are calibrated so the theory reproduces the paper's
// empirical findings on the prototype's scale: T*(K=10, E=40) ≈ 97 rounds to
// the target (Fig. 4d shows ≈90), K* = 1 under IID shards (Fig. 5), E* ≈ 43
// (Fig. 6 region), and ≈49.8% energy saving versus (K=1, E=1).
func DefaultBoundConstants() BoundConstants {
	return BoundConstants{A0: 300, A1: 0.01, A2: 4e-5}
}

// EnergyParams aggregate the per-round energy law of Eq. (12):
//
//	per-server, per-round energy = B0·E + B1
//	B0 = c0·n̄ + c1          (compute energy per local epoch)
//	B1 = ρ·n̄ + e^U          (data collection + model upload per round)
type EnergyParams struct {
	B0, B1 float64
}

// Validate checks that both constants are finite and positive.
func (p EnergyParams) Validate() error {
	if !(p.B0 > 0 && p.B1 > 0) || math.IsInf(p.B0+p.B1, 1) {
		return fmt.Errorf("energy params %+v: %w", p, ErrParams)
	}
	return nil
}

// PerRound returns B0·E + B1, the energy one selected server spends per
// global round.
func (p EnergyParams) PerRound(e float64) float64 {
	return p.B0*e + p.B1
}

// NewEnergyParams derives (B0, B1) from the device energy model, the IoT
// uplink, and the per-server sample count n̄. Set preloaded to true to model
// the paper's prototype, where the dataset is pre-loaded on each edge server
// and the ρ·n̄ data-collection term vanishes.
func NewEnergyParams(dm energy.DeviceModel, uplink iot.UplinkConfig, samplesPerServer int, preloaded bool) (EnergyParams, error) {
	if err := dm.Validate(); err != nil {
		return EnergyParams{}, fmt.Errorf("device model: %w", err)
	}
	if err := uplink.Validate(); err != nil {
		return EnergyParams{}, fmt.Errorf("uplink: %w", err)
	}
	if samplesPerServer <= 0 {
		return EnergyParams{}, fmt.Errorf("samples per server %d: %w", samplesPerServer, ErrParams)
	}
	c0, c1 := dm.Coefficients()
	b1 := dm.UploadEnergy()
	if !preloaded {
		b1 += uplink.CollectionEnergy(samplesPerServer)
	}
	return EnergyParams{
		B0: c0*float64(samplesPerServer) + c1,
		B1: b1,
	}, nil
}

// DefaultEnergyParams mirrors the prototype: Pi-4B device model, NB-IoT
// uplink, 3000 samples per server, data pre-loaded.
func DefaultEnergyParams() EnergyParams {
	p, err := NewEnergyParams(energy.DefaultPiDeviceModel(), iot.DefaultNBIoTConfig(), 3000, true)
	if err != nil {
		// The defaults are compile-time constants; failure here is a bug.
		panic(fmt.Sprintf("core: default energy params: %v", err))
	}
	return p
}

// GapObservation is one empirical convergence measurement: a federated run
// with parameters (K, E) that reached optimality gap Gap after T rounds.
// FitBoundConstants recovers (A0, A1, A2) from a set of these.
type GapObservation struct {
	K, E, T int
	Gap     float64
}

// FitBoundConstants least-squares fits the bound constants to empirical
// convergence data using the feature map [1/(TE), 1/K, (E−1)] of Eq. (10).
// Negative fitted values are clamped to a small positive floor, since the
// bound requires non-negative constants.
func FitBoundConstants(obs []GapObservation) (BoundConstants, error) {
	if len(obs) < 3 {
		return BoundConstants{}, fmt.Errorf("%d observations, need >= 3: %w", len(obs), ErrParams)
	}
	design := mat.NewDense(len(obs), 3)
	y := make([]float64, len(obs))
	for i, o := range obs {
		if o.K <= 0 || o.E <= 0 || o.T <= 0 {
			return BoundConstants{}, fmt.Errorf("observation %d has non-positive parameters: %w", i, ErrParams)
		}
		design.Set(i, 0, 1/float64(o.T*o.E))
		design.Set(i, 1, 1/float64(o.K))
		design.Set(i, 2, float64(o.E-1))
		y[i] = o.Gap
	}
	coef, err := mat.QRLeastSquares(design, y)
	if err != nil {
		return BoundConstants{}, fmt.Errorf("bound fit: %w", err)
	}
	const floor = 1e-12
	b := BoundConstants{A0: coef[0], A1: coef[1], A2: coef[2]}
	if b.A0 < floor {
		b.A0 = floor
	}
	if b.A1 < floor {
		b.A1 = floor
	}
	if b.A2 < 0 {
		b.A2 = 0
	}
	return b, nil
}
