package ml

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// evalFixture builds a trained-ish model and dataset large enough to span
// several evaluation chunks.
func evalFixture(t testing.TB, act Activation) (*Model, *dataset.Dataset) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1200
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	m := NewModel(d.Classes, d.Dim(), act)
	rng := mat.NewRNG(7)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = 0.05 * rng.Norm()
	}
	return m, d
}

func TestEvaluatorLossMatchesSequentialBitIdentical(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		m, d := evalFixture(t, act)
		want, err := NewEvaluator(1).Loss(m, d)
		if err != nil {
			t.Fatalf("sequential Loss: %v", err)
		}
		for _, workers := range []int{2, 3, 8, 100} {
			ev := NewEvaluator(workers)
			for pass := 0; pass < 2; pass++ { // second pass exercises scratch reuse
				got, err := ev.Loss(m, d)
				if err != nil {
					t.Fatalf("Loss(workers=%d): %v", workers, err)
				}
				if got != want {
					t.Errorf("%v workers=%d pass %d: loss %v != sequential %v", act, workers, pass, got, want)
				}
			}
		}
	}
}

// TestEvaluatorAccuracyMatchesPerRowPredict: the chunked hit count equals the
// rows whose Model.Predict, one sample at a time, returns the label.
func TestEvaluatorAccuracyMatchesPerRowPredict(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		m, d := evalFixture(t, act)
		hits := 0
		for i := 0; i < d.Len(); i++ {
			p, err := m.Predict(d.X.Row(i))
			if err != nil {
				t.Fatalf("Predict(%d): %v", i, err)
			}
			if p == d.Labels[i] {
				hits++
			}
		}
		want := float64(hits) / float64(d.Len())
		for _, workers := range []int{1, 2, 7} {
			got, err := NewEvaluator(workers).Accuracy(m, d)
			if err != nil {
				t.Fatalf("Evaluator.Accuracy(workers=%d): %v", workers, err)
			}
			if got != want {
				t.Errorf("%v workers=%d: accuracy %v != per-row Predict %v", act, workers, got, want)
			}
		}
	}
}

func TestEvaluatorLossCloseToPackageLoss(t *testing.T) {
	// Chunked reduction reassociates the float sum, so values may differ
	// from the strictly sequential package function only in the last bits.
	m, d := evalFixture(t, Softmax)
	seq, err := Loss(m, d)
	if err != nil {
		t.Fatalf("Loss: %v", err)
	}
	chunked, err := NewEvaluator(4).Loss(m, d)
	if err != nil {
		t.Fatalf("Evaluator.Loss: %v", err)
	}
	if diff := seq - chunked; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("chunked loss %v too far from sequential %v", chunked, seq)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	m, d := evalFixture(t, Softmax)
	ev := NewEvaluator(2)
	if _, err := ev.Loss(m, &dataset.Dataset{X: mat.NewDense(0, 0)}); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("empty dataset = %v, want ErrEmpty", err)
	}
	bad := NewModel(d.Classes, d.Dim()+1, Softmax)
	if _, err := ev.Loss(bad, d); !errors.Is(err, ErrModelShape) {
		t.Errorf("dim mismatch = %v, want ErrModelShape", err)
	}
	if _, err := ev.Accuracy(bad, d); !errors.Is(err, ErrModelShape) {
		t.Errorf("accuracy dim mismatch = %v, want ErrModelShape", err)
	}
	_ = m
}

func TestSGDResetReproducesFreshOptimizer(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 300
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	sgdCfg := SGDConfig{LearningRate: 0.1, Decay: 0.95, BatchSize: 64, Seed: 5}

	train := func(s *SGD) []float64 {
		m := NewModel(d.Classes, d.Dim(), Softmax)
		return epochLosses(t, s, m, d, 3)
	}

	fresh, err := NewSGD(sgdCfg)
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	want := train(fresh)

	// Dirty the optimizer with a different config, then Reset back.
	reused, err := NewSGD(SGDConfig{LearningRate: 9, BatchSize: 17, Seed: 999})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	train(reused)
	if err := reused.Reset(sgdCfg); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	got := train(reused)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch %d: reset optimizer loss %v != fresh %v", i, got[i], want[i])
		}
	}
	if reused.lr == sgdCfg.LearningRate {
		t.Error("decay should have moved the learning rate during training")
	}
}

func TestSGDResetValidates(t *testing.T) {
	s, err := NewSGD(SGDConfig{LearningRate: 0.1})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	for _, bad := range []SGDConfig{
		{LearningRate: 0},
		{LearningRate: 0.1, Decay: 2},
		{LearningRate: 0.1, BatchSize: -1},
		{LearningRate: math.NaN()},
		{LearningRate: math.Inf(1)},
		{LearningRate: 0.1, Decay: math.NaN()},
	} {
		if err := s.Reset(bad); err == nil {
			t.Errorf("Reset(%+v) must fail", bad)
		}
	}
}

func BenchmarkEvaluatorLoss(b *testing.B) {
	m, d := evalFixture(b, Softmax)
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(b *testing.B) {
			ev := NewEvaluator(workers)
			if _, err := ev.Loss(m, d); err != nil { // warmup: scratch + goroutine reuse
				b.Fatalf("warmup Loss: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Loss(m, d); err != nil {
					b.Fatalf("Loss: %v", err)
				}
			}
		})
	}
}

func BenchmarkSGDEpochMiniBatch(b *testing.B) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1000
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		b.Fatalf("Synthesize: %v", err)
	}
	m := NewModel(d.Classes, d.Dim(), Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.1, BatchSize: 100})
	if err != nil {
		b.Fatalf("NewSGD: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sgd.Epoch(m, d); err != nil {
			b.Fatalf("Epoch: %v", err)
		}
	}
}

func TestGatedWorkers(t *testing.T) {
	tests := []struct {
		name          string
		rows, workers int
		want          int
	}{
		{"tiny dataset forces sequential", 100, 8, 1},
		{"just below one quota", MinEvalRowsPerWorker - 1, 4, 1},
		{"exactly one quota", MinEvalRowsPerWorker, 4, 1},
		{"two quotas cap at two", 2 * MinEvalRowsPerWorker, 8, 2},
		{"request below cap is kept", 10 * MinEvalRowsPerWorker, 3, 3},
		{"zero workers clamps to one", 10 * MinEvalRowsPerWorker, 0, 1},
		{"zero rows clamps to one", 0, 8, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GatedWorkers(tt.rows, tt.workers); got != tt.want {
				t.Errorf("GatedWorkers(%d, %d) = %d, want %d", tt.rows, tt.workers, got, tt.want)
			}
		})
	}
}

// TestEvaluatorSpawnGateBitIdentical pins that the min-work gate is pure
// scheduling: on a dataset small enough to be forced sequential, a
// many-worker Evaluator returns the exact bits of the one-worker result.
func TestEvaluatorSpawnGateBitIdentical(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 300 // below MinEvalRowsPerWorker: gate forces 1 worker
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	m := NewModel(d.Classes, d.Dim(), Softmax)
	rng := mat.NewRNG(7)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = 0.05 * rng.Norm()
	}
	want, err := NewEvaluator(1).Loss(m, d)
	if err != nil {
		t.Fatalf("sequential Loss: %v", err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := NewEvaluator(workers).Loss(m, d)
		if err != nil {
			t.Fatalf("Loss(workers=%d): %v", workers, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: loss %v differs bit-wise from sequential %v", workers, got, want)
		}
	}
}
