package eefei

import (
	"math"
	"testing"

	"eefei/internal/core"
	"eefei/internal/iot"
	"eefei/internal/ml"
)

func TestPlanDefaultReproducesHeadline(t *testing.T) {
	plan, err := PlanDefault()
	if err != nil {
		t.Fatalf("PlanDefault: %v", err)
	}
	if plan.K != 1 {
		t.Errorf("K = %d, want 1 (paper Fig. 5)", plan.K)
	}
	if plan.E < 20 || plan.E > 80 {
		t.Errorf("E = %d, want Fig.-6 region [20,80]", plan.E)
	}
	if s := plan.Savings(); math.Abs(s-0.498) > 0.03 {
		t.Errorf("savings = %.3f, want ≈0.498", s)
	}
}

func TestPlanProblemCustom(t *testing.T) {
	p := DefaultProblem()
	p.Servers = 50
	plan, err := PlanProblem(p)
	if err != nil {
		t.Fatalf("PlanProblem: %v", err)
	}
	if plan.K < 1 || plan.K > 50 {
		t.Errorf("K = %d outside [1,50]", plan.K)
	}
}

func TestPlanGridAgrees(t *testing.T) {
	p := DefaultProblem()
	acs, err := PlanProblem(p)
	if err != nil {
		t.Fatalf("PlanProblem: %v", err)
	}
	grid, err := PlanGrid(p, 200)
	if err != nil {
		t.Fatalf("PlanGrid: %v", err)
	}
	if acs.PredictedJoules > grid.PredictedJoules*(1+1e-9) {
		t.Errorf("ACS %v J vs grid %v J", acs.PredictedJoules, grid.PredictedJoules)
	}
}

// The root package's device model, derived for 3000 preloaded samples over
// the default uplink, yields exactly the default problem's energy constants.
func TestDeriveEnergyParams(t *testing.T) {
	params, err := core.NewEnergyParams(DefaultDeviceModel(), iot.DefaultNBIoTConfig(), 3000, true)
	if err != nil {
		t.Fatalf("NewEnergyParams: %v", err)
	}
	def := DefaultProblem().Energy
	if math.Abs(params.B0-def.B0) > 1e-12 || math.Abs(params.B1-def.B1) > 1e-12 {
		t.Errorf("derived %+v, default %+v", params, def)
	}
}

// Shards built through the root package feed the physical-constant
// estimator, and its σ² is the one EstimateGradientVariance reports.
func TestEstimateFacade(t *testing.T) {
	dcfg := SyntheticConfig{Samples: 300, Classes: 10, Side: 6, Noise: 0.3, BlobsPerClass: 2, Seed: 1}
	d, _, err := SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := PartitionIID(d, 3, 1)
	if err != nil {
		t.Fatalf("PartitionIID: %v", err)
	}
	model := ml.NewModel(d.Classes, d.Dim(), ml.Softmax)
	phys, err := core.EstimatePhysical(model, shards, 0.1, 1, 1, 1, core.EstimateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("EstimatePhysical: %v", err)
	}
	if phys.GradientVarianceAtOpt <= 0 || phys.Smoothness <= 0 {
		t.Errorf("physical constants degenerate: %+v", phys)
	}
	sigma, err := core.EstimateGradientVariance(model, shards)
	if err != nil || sigma != phys.GradientVarianceAtOpt {
		t.Errorf("σ² mismatch: %v (%v)", sigma, err)
	}
}

func TestSimulateEndToEndViaFacade(t *testing.T) {
	dcfg := SyntheticConfig{Samples: 600, Classes: 10, Side: 8, Noise: 0.3, BlobsPerClass: 3, Seed: 1}
	train, test, err := SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := PartitionIID(train, 6, 1)
	if err != nil {
		t.Fatalf("PartitionIID: %v", err)
	}
	cfg := DefaultSimConfig()
	cfg.Servers = 6
	cfg.FL = FLConfig{ClientsPerRound: 3, LocalEpochs: 4, LearningRate: 0.5, Decay: 0.99, Seed: 1}
	res, err := Simulate(cfg, shards, test, AnyOf(TargetAccuracy(0.85), MaxRounds(40)))
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.TotalJoules() <= 0 {
		t.Error("simulation must consume energy")
	}
	if res.FinalAccuracy < 0.7 {
		t.Errorf("final accuracy = %v", res.FinalAccuracy)
	}
	if res.Ledger.Phase(PhaseTrain) <= 0 {
		t.Error("training phase energy missing from ledger")
	}
}
