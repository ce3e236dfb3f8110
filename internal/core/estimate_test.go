package core

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/ml"
)

// estimateFixture trains a reference model on a small synthetic dataset and
// returns it with its IID shards.
func estimateFixture(t *testing.T) (*ml.Model, []*dataset.Dataset) {
	t.Helper()
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 600
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(d, 6)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	model := ml.NewModel(d.Classes, d.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: 0.3, Decay: 0.999})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.TrainFinal(model, d, 300); err != nil {
		t.Fatalf("Train: %v", err)
	}
	return model, shards
}

func TestEstimateGradientVariance(t *testing.T) {
	model, shards := estimateFixture(t)
	sigmaSq, err := EstimateGradientVariance(model, shards)
	if err != nil {
		t.Fatalf("EstimateGradientVariance: %v", err)
	}
	if sigmaSq <= 0 {
		t.Fatalf("σ² = %v, want > 0 (per-shard gradients never vanish exactly)", sigmaSq)
	}
	// Per-shard gradients at a near-optimum are small: σ² well below the
	// squared gradient norm of the untrained model.
	zero := ml.NewModel(model.Classes(), model.Features(), model.Act)
	zeroSigma, err := EstimateGradientVariance(zero, shards)
	if err != nil {
		t.Fatalf("EstimateGradientVariance(zero): %v", err)
	}
	if sigmaSq >= zeroSigma {
		t.Errorf("σ² at optimum (%v) not below σ² at init (%v)", sigmaSq, zeroSigma)
	}
	if _, err := EstimateGradientVariance(model, nil); !errors.Is(err, ErrParams) {
		t.Errorf("no shards = %v, want ErrParams", err)
	}
}

func TestEstimateSmoothness(t *testing.T) {
	model, shards := estimateFixture(t)
	_ = model
	lSoftmax, err := EstimateSmoothness(shards, ml.Softmax, EstimateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("EstimateSmoothness: %v", err)
	}
	if lSoftmax <= 0 {
		t.Fatalf("L = %v, want > 0", lSoftmax)
	}
	// Pixels live in [0,1] over 64 features: λmax(XᵀX/n) ≤ 64, so L ≤ 32.
	if lSoftmax > 32 {
		t.Errorf("L = %v exceeds the trivial bound 32", lSoftmax)
	}
	lSigmoid, err := EstimateSmoothness(shards, ml.Sigmoid, EstimateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("EstimateSmoothness sigmoid: %v", err)
	}
	if math.Abs(lSigmoid-lSoftmax/2) > 1e-9 {
		t.Errorf("sigmoid L = %v, want half of softmax %v", lSigmoid, lSoftmax)
	}
	if _, err := EstimateSmoothness(nil, ml.Softmax, EstimateOptions{}); !errors.Is(err, ErrParams) {
		t.Errorf("no shards = %v, want ErrParams", err)
	}
}

func TestEstimateInitialDistance(t *testing.T) {
	model, _ := estimateFixture(t)
	d := EstimateInitialDistance(model)
	if d <= 0 {
		t.Fatalf("distance = %v, want > 0", d)
	}
	zero := ml.NewModel(model.Classes(), model.Features(), model.Act)
	if EstimateInitialDistance(zero) != 0 {
		t.Error("distance of the zero model must be 0")
	}
}

func TestEstimatePhysicalProducesUsableProblem(t *testing.T) {
	model, shards := estimateFixture(t)
	phys, err := EstimatePhysical(model, shards, 0.1, 1, 1, 1, EstimateOptions{Seed: 1})
	if err != nil {
		t.Fatalf("EstimatePhysical: %v", err)
	}
	if sigma, err := EstimateGradientVariance(model, shards); err != nil || sigma != phys.GradientVarianceAtOpt {
		t.Errorf("σ² = %v (%v), EstimatePhysical says %v", sigma, err, phys.GradientVarianceAtOpt)
	}
	bound, err := phys.Aggregate()
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if err := bound.Validate(); err != nil {
		t.Fatalf("estimated bound invalid: %v", err)
	}
	// The estimated constants must admit a feasible, solvable problem for
	// a reachable ε.
	p := Problem{
		Bound:   bound,
		Energy:  DefaultEnergyParams(),
		Epsilon: bound.A1 * 1.5, // comfortably feasible at moderate K
		Servers: len(shards),
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("estimated problem invalid: %v", err)
	}
	plan, err := Solve(p, DefaultPlannerConfig())
	if err != nil {
		t.Fatalf("Solve on estimated constants: %v", err)
	}
	if plan.K < 1 || plan.E < 1 || plan.T < 1 {
		t.Errorf("degenerate plan %+v", plan)
	}
}

func TestEstimatePhysicalValidation(t *testing.T) {
	model, shards := estimateFixture(t)
	if _, err := EstimatePhysical(model, shards, 0, 1, 1, 1, EstimateOptions{}); !errors.Is(err, ErrParams) {
		t.Errorf("zero lr = %v, want ErrParams", err)
	}
}
