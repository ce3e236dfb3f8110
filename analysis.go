package eefei

import (
	"io"
	"time"

	"eefei/internal/core"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/ml"
	"eefei/internal/sim"
)

// This file exposes the analysis and extension surface of the library:
// plan sensitivity, the energy/time Pareto frontier, per-term energy
// breakdowns, lossy model-upload compression, heterogeneous fleets, and
// power-trace persistence.

// Analysis types, re-exported.
type (
	// SensitivityRow reports the plan's response to a perturbed constant.
	SensitivityRow = core.SensitivityRow
	// ParetoPoint is one energy/time trade-off.
	ParetoPoint = core.ParetoPoint
	// Breakdown splits a configuration's energy into compute vs
	// communication.
	Breakdown = core.Breakdown
	// QuantBits selects the lossy upload codec width.
	QuantBits = ml.QuantBits
	// Heterogeneity describes per-server device spread.
	Heterogeneity = sim.Heterogeneity
	// DeviceFleet holds realized per-server device models.
	DeviceFleet = sim.DeviceFleet
	// StragglerReport quantifies synchronous-round idle waste.
	StragglerReport = sim.StragglerReport
)

// Quantization widths, re-exported.
const (
	Quant8  = ml.Quant8
	Quant16 = ml.Quant16
)

// Sensitivity re-solves the problem under ±delta relative perturbations of
// every constant; see core.Sensitivity.
func Sensitivity(p Problem, delta float64) ([]SensitivityRow, error) {
	return core.Sensitivity(p, delta)
}

// PlanDuration predicts the wall-clock time of executing a plan.
func PlanDuration(plan Plan, tm TimeModel, samplesPerServer int) time.Duration {
	return core.PlanDuration(plan, tm, samplesPerServer)
}

// ParetoFrontier enumerates the non-dominated energy/time configurations.
func ParetoFrontier(p Problem, tm TimeModel, samplesPerServer, eMax int) ([]ParetoPoint, error) {
	return core.ParetoFrontier(p, tm, samplesPerServer, eMax)
}

// EnergyBreakdown splits Ê(K, E) into its compute and communication terms.
func EnergyBreakdown(p Problem, k, e int) (Breakdown, error) {
	return core.EnergyBreakdown(p, k, e)
}

// QuantizeModel losslessly-shaped lossy compression of model parameters for
// upload (8 or 16 bits per parameter); DequantizeModel inverts it.
func QuantizeModel(m *Model, bits QuantBits) ([]byte, error) {
	return ml.QuantizeModel(m, bits)
}

// DequantizeModel decodes a QuantizeModel payload.
func DequantizeModel(data []byte) (*Model, error) {
	return ml.DequantizeModel(data)
}

// NewDeviceFleet realizes n per-server device models around a nominal model
// with the given heterogeneity.
func NewDeviceFleet(nominal DeviceModel, n int, h Heterogeneity) (*DeviceFleet, error) {
	return sim.NewDeviceFleet(nominal, n, h)
}

// SaveTrace / LoadTrace persist 1 kHz power captures in the library's
// binary container.
var (
	SaveTrace = energy.SaveTrace
	LoadTrace = energy.LoadTrace
)

// Per-round observability, re-exported: attach a RoundObserver (or a
// TraceWriter over an io.Writer) to a simulation's engine via
// SetRoundObserver to stream one RoundStats per round.
type (
	// RoundStats is one round's phase timings and pool occupancy.
	RoundStats = fl.RoundStats
	// RoundObserver consumes RoundStats after each round.
	RoundObserver = fl.RoundObserver
	// FuncObserver adapts a function to the RoundObserver interface.
	FuncObserver = fl.FuncObserver
	// TraceWriter is a RoundObserver that streams JSONL (cmd/tracefmt
	// renders the files it writes).
	TraceWriter = fl.TraceWriter
)

// NewTraceWriter streams each observed round as one JSON line on w.
func NewTraceWriter(w io.Writer) *TraceWriter { return fl.NewTraceWriter(w) }

// First-principles constant estimation, re-exported: derive σ², L and
// ‖ω0−ω*‖² from a dataset plus a near-optimal reference model, then
// aggregate them into bound constants via PhysicalConstants.Aggregate.
type EstimateOptions = core.EstimateOptions

// EstimatePhysical assembles PhysicalConstants from data; see
// core.EstimatePhysical.
func EstimatePhysical(reference *Model, shards []*Dataset, learningRate float64,
	alpha0, alpha1, alpha2 float64, opts EstimateOptions) (PhysicalConstants, error) {
	return core.EstimatePhysical(reference, shards, learningRate, alpha0, alpha1, alpha2, opts)
}

// EstimateGradientVariance computes the bound's σ² at a reference model.
func EstimateGradientVariance(reference *Model, shards []*Dataset) (float64, error) {
	return core.EstimateGradientVariance(reference, shards)
}
