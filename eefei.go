// Package eefei is the public API of the EE-FEI library — a full
// reproduction of "Towards Energy-efficient Federated Edge Intelligence for
// IoT Networks" (ICDCS 2021). It jointly optimizes the number of
// participating edge servers K, the local epochs E and the global rounds T
// to minimize the total energy an FEI system spends training a model to a
// target accuracy, and ships every substrate the paper's evaluation needs:
// a FedAvg engine (in-process and over TCP), a calibrated Raspberry-Pi
// energy model with 1 kHz power traces, an IoT uplink model, a linear
// classifier on a synthetic MNIST substitute, and harnesses reproducing all
// of the paper's tables and figures.
//
// The quickest way in:
//
//	plan, err := eefei.PlanDefault()
//	// plan.K, plan.E, plan.T minimize energy; plan.Savings() ≈ 0.498
//
// For a custom system, build a Problem from your own constants:
//
//	problem := eefei.Problem{
//	    Bound:   eefei.BoundConstants{A0: 300, A1: 0.01, A2: 4e-5},
//	    Energy:  eefei.EnergyParams{B0: 0.237, B1: 0.26},
//	    Epsilon: 0.08,
//	    Servers: 20,
//	}
//	plan, err := eefei.PlanProblem(problem)
//
// and run a full simulated training with energy accounting via Simulate.
// The package examples walk through all three: planning, the measure → fit
// → plan calibration loop, and simulated federated training.
package eefei

import (
	"fmt"

	"eefei/internal/core"
	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/sim"
)

// Re-exported types. Aliases keep the public surface thin while the
// implementation lives in focused internal packages.
type (
	// Problem is the Eq.-(13) energy-minimization problem.
	Problem = core.Problem
	// Plan is a solved (K, E, T) configuration with predicted energy.
	Plan = core.Plan
	// BoundConstants are the convergence-bound constants (A0, A1, A2).
	BoundConstants = core.BoundConstants
	// EnergyParams are the per-round energy constants (B0, B1).
	EnergyParams = core.EnergyParams

	// DeviceModel is the edge-server power/time model.
	DeviceModel = energy.DeviceModel

	// Dataset is an in-memory labelled dataset.
	Dataset = dataset.Dataset
	// SyntheticConfig controls the MNIST-substitute generator.
	SyntheticConfig = dataset.SyntheticConfig

	// FLConfig are the federated hyper-parameters.
	FLConfig = fl.Config
	// StopCondition ends a training run.
	StopCondition = fl.StopCondition
	// RoundStats is one round's phase timings, as a Calibrator observes
	// them.
	RoundStats = fl.RoundStats

	// SimConfig assembles a full simulated FEI system.
	SimConfig = sim.Config
	// SimResult is a completed simulated run with its energy ledger.
	SimResult = sim.Result
)

// Phase constants, re-exported for ledger inspection.
const (
	PhaseWaiting  = energy.PhaseWaiting
	PhaseDownload = energy.PhaseDownload
	PhaseTrain    = energy.PhaseTrain
	PhaseUpload   = energy.PhaseUpload
)

// DefaultProblem returns the calibrated prototype-scale problem (20 Pi-4B
// edge servers, 3000 samples each, target gap 0.08).
func DefaultProblem() Problem { return core.DefaultProblem() }

// DefaultDeviceModel returns the calibrated Raspberry Pi 4B device model
// (3.6/4.286/5.553/5.015 W phases, Table-I duration law).
func DefaultDeviceModel() DeviceModel { return energy.DefaultPiDeviceModel() }

// PlanDefault solves the calibrated default problem with Algorithm 1.
func PlanDefault() (Plan, error) {
	return core.Solve(core.DefaultProblem(), core.DefaultPlannerConfig())
}

// PlanProblem solves an arbitrary problem with Algorithm 1 and default
// planner settings.
func PlanProblem(p Problem) (Plan, error) {
	return core.Solve(p, core.DefaultPlannerConfig())
}

// PlanGrid solves by exhaustive integer grid search (the ablation baseline;
// eMax bounds the E axis).
func PlanGrid(p Problem, eMax int) (Plan, error) {
	return core.SolveGrid(p, eMax)
}

// SynthesizePair generates a train/test split sharing class prototypes. Both
// sets derive from train.Seed; test.Seed is ignored.
func SynthesizePair(train, test SyntheticConfig) (*Dataset, *Dataset, error) {
	return dataset.SynthesizePair(train, test)
}

// PartitionIID deals a dataset into IID shards, one per edge server.
func PartitionIID(d *Dataset, servers int, seed uint64) ([]*Dataset, error) {
	return dataset.IIDPartitioner{Seed: seed}.Partition(d, servers)
}

// DefaultSimConfig mirrors the paper's prototype system.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Simulate runs a full FEI training simulation with energy accounting:
// shards are the per-server datasets, test the held-out set (may be nil),
// and stop the termination condition (compose with MaxRounds /
// TargetAccuracy / AnyOf).
func Simulate(cfg SimConfig, shards []*Dataset, test *Dataset, stop StopCondition) (*SimResult, error) {
	system, err := sim.New(cfg, shards, test)
	if err != nil {
		return nil, fmt.Errorf("eefei: build simulation: %w", err)
	}
	return system.Run(stop)
}

// Measured-energy calibration, re-exported. NewCalibrator builds the
// RoundObserver that closes the trace→energy loop (see internal/energy);
// ReadTrace decodes a persisted -trace JSONL capture for Calibrator.Replay.
var (
	NewCalibrator = energy.NewCalibrator
	ReadTrace     = fl.ReadTrace
)

// Stop-condition constructors, re-exported.
var (
	// MaxRounds stops after n global rounds.
	MaxRounds = fl.MaxRounds
	// TargetAccuracy stops at a test-accuracy threshold.
	TargetAccuracy = fl.TargetAccuracy
	// AnyOf combines stop conditions.
	AnyOf = fl.AnyOf
)
