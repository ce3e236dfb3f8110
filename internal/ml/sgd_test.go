package ml

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
)

func TestNewSGDValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     SGDConfig
		wantErr bool
	}{
		{"default ok", DefaultSGDConfig(), false},
		{"zero lr", SGDConfig{LearningRate: 0}, true},
		{"negative lr", SGDConfig{LearningRate: -1}, true},
		{"decay above 1", SGDConfig{LearningRate: 0.1, Decay: 1.5}, true},
		{"negative batch", SGDConfig{LearningRate: 0.1, BatchSize: -1}, true},
		{"no decay ok", SGDConfig{LearningRate: 0.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSGD(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewSGD err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSGDReducesLoss(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.2})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	losses, err := sgd.Train(m, d, 50)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: first %v, last %v", losses[0], losses[len(losses)-1])
	}
	acc, err := Accuracy(m, d)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc != 1 {
		t.Errorf("separable toy accuracy = %v, want 1", acc)
	}
}

func TestSGDMonotoneOnConvexFullBatch(t *testing.T) {
	// Full-batch GD with a small step on a convex loss must be monotone.
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.05})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	losses, err := sgd.Train(m, d, 100)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1]+1e-12 {
			t.Fatalf("loss increased at epoch %d: %v -> %v", i, losses[i-1], losses[i])
		}
	}
}

func TestSGDDecaySchedule(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.01, Decay: 0.99, DecayEvery: 1})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Train(m, d, 10); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want := 0.01 * math.Pow(0.99, 10)
	if math.Abs(sgd.LearningRate()-want) > 1e-15 {
		t.Errorf("lr after 10 epochs = %v, want %v", sgd.LearningRate(), want)
	}
	if sgd.EpochsRun() != 10 {
		t.Errorf("EpochsRun = %d, want 10", sgd.EpochsRun())
	}
}

func TestSGDDecayEveryE(t *testing.T) {
	// Decaying once per E epochs (per global round, as the paper does).
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.01, Decay: 0.9, DecayEvery: 5})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Train(m, d, 9); err != nil {
		t.Fatalf("Train: %v", err)
	}
	if math.Abs(sgd.LearningRate()-0.009) > 1e-15 {
		t.Errorf("lr after 9 epochs with DecayEvery=5 = %v, want 0.009", sgd.LearningRate())
	}
}

func TestSGDMiniBatchTrains(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.1, BatchSize: 2, Seed: 7})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	losses, err := sgd.Train(m, d, 40)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("mini-batch loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

// TestSGDEpochAllocationFree pins that once an optimizer's scratch (gradient,
// logits, shuffle and batch buffers) is sized by a first epoch, further
// epochs allocate nothing, full-batch or mini-batch.
func TestSGDEpochAllocationFree(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1000
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for _, batch := range []int{0, 100} {
		m := NewModel(d.Classes, d.Dim(), Softmax)
		sgd, err := NewSGD(SGDConfig{LearningRate: 0.1, BatchSize: batch})
		if err != nil {
			t.Fatalf("NewSGD: %v", err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sgd.Epoch(m, d); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("batch=%d: a warm epoch allocates %v, want 0", batch, allocs)
		}
		t.Logf("batch=%d: a warm epoch allocates %v", batch, allocs)
	}
}

func TestSGDDeterministicAcrossRuns(t *testing.T) {
	d := twoClassToy(t)
	run := func() *Model {
		m := NewModel(2, 2, Softmax)
		sgd, err := NewSGD(SGDConfig{LearningRate: 0.1, BatchSize: 2, Seed: 3})
		if err != nil {
			t.Fatalf("NewSGD: %v", err)
		}
		if _, err := sgd.Train(m, d, 10); err != nil {
			t.Fatalf("Train: %v", err)
		}
		return m
	}
	if run().ParamDistance(run()) != 0 {
		t.Error("same-seed training must be bit-identical")
	}
}

func TestSGDEmptyDataset(t *testing.T) {
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(DefaultSGDConfig())
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Epoch(m, &dataset.Dataset{}); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("empty dataset = %v, want ErrEmpty", err)
	}
}

func TestSGDTrainBadEpochs(t *testing.T) {
	sgd, err := NewSGD(DefaultSGDConfig())
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Train(NewModel(2, 2, Softmax), twoClassToy(t), 0); err == nil {
		t.Error("0 epochs must error")
	}
}

func TestTrainOnSyntheticDigits(t *testing.T) {
	// End-to-end: the classifier must reach solid accuracy on the synthetic
	// MNIST substitute — this is the substrate of the paper's Fig. 4.
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := dataset.SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	m := NewModel(train.Classes, train.Dim(), Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.5, Decay: 0.999, DecayEvery: 1})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Train(m, train, 150); err != nil {
		t.Fatalf("Train: %v", err)
	}
	acc, err := Accuracy(m, test)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc < 0.85 {
		t.Errorf("synthetic-digit test accuracy = %.3f, want >= 0.85", acc)
	}
}
