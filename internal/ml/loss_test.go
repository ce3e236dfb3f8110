package ml

import (
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

func twoClassToy(t *testing.T) *dataset.Dataset {
	t.Helper()
	// Two well-separated clusters in 2-D.
	x, err := mat.NewDenseData(6, 2, []float64{
		2, 2,
		2.5, 1.5,
		3, 2.5,
		-2, -2,
		-2.5, -1.5,
		-3, -2.5,
	})
	if err != nil {
		t.Fatalf("NewDenseData: %v", err)
	}
	return &dataset.Dataset{X: x, Labels: []int{0, 0, 0, 1, 1, 1}, Classes: 2}
}

func TestLossAtZeroIsLogClasses(t *testing.T) {
	// Softmax with zero weights assigns uniform probability 1/C, so the
	// cross-entropy is ln(C).
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	l, err := Loss(m, d)
	if err != nil {
		t.Fatalf("Loss: %v", err)
	}
	if math.Abs(l-math.Log(2)) > 1e-12 {
		t.Errorf("zero-model loss = %v, want ln 2 = %v", l, math.Log(2))
	}
}

func TestSigmoidLossAtZero(t *testing.T) {
	// Sigmoid head at zero weights: every class scores 0.5, so per sample the
	// loss is C·ln 2.
	d := twoClassToy(t)
	m := NewModel(2, 2, Sigmoid)
	l, err := Loss(m, d)
	if err != nil {
		t.Fatalf("Loss: %v", err)
	}
	if math.Abs(l-2*math.Log(2)) > 1e-12 {
		t.Errorf("zero-model sigmoid loss = %v, want 2·ln2", l)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		t.Run(act.String(), func(t *testing.T) {
			d := twoClassToy(t)
			m := NewModel(2, 2, act)
			// Non-trivial starting point.
			m.W.SetRow(0, []float64{0.1, -0.2})
			m.W.SetRow(1, []float64{-0.3, 0.4})
			m.B[0], m.B[1] = 0.05, -0.1

			grad := NewModel(2, 2, act)
			if _, err := Gradient(m, d, grad); err != nil {
				t.Fatalf("Gradient: %v", err)
			}

			const h = 1e-6
			check := func(get func() *float64, analytic float64, name string) {
				p := get()
				orig := *p
				*p = orig + h
				up, err := Loss(m, d)
				if err != nil {
					t.Fatalf("Loss: %v", err)
				}
				*p = orig - h
				down, err := Loss(m, d)
				if err != nil {
					t.Fatalf("Loss: %v", err)
				}
				*p = orig
				numeric := (up - down) / (2 * h)
				if math.Abs(numeric-analytic) > 1e-5 {
					t.Errorf("%s: analytic %v vs numeric %v", name, analytic, numeric)
				}
			}
			for c := 0; c < 2; c++ {
				for f := 0; f < 2; f++ {
					c, f := c, f
					check(func() *float64 { return &m.W.Row(c)[f] }, grad.W.At(c, f), "W")
				}
				c := c
				check(func() *float64 { return &m.B[c] }, grad.B[c], "B")
			}
		})
	}
}

func TestGradientReturnsLoss(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	grad := NewModel(2, 2, Softmax)
	viaGrad, err := Gradient(m, d, grad)
	if err != nil {
		t.Fatalf("Gradient: %v", err)
	}
	direct, err := Loss(m, d)
	if err != nil {
		t.Fatalf("Loss: %v", err)
	}
	if math.Abs(viaGrad-direct) > 1e-12 {
		t.Errorf("Gradient loss %v != Loss %v", viaGrad, direct)
	}
}

func TestGradientShapeErrors(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 3, Softmax) // wrong feature count
	grad := NewModel(2, 3, Softmax)
	if _, err := Gradient(m, d, grad); err == nil {
		t.Error("dimension mismatch must error")
	}
	m2 := NewModel(2, 2, Softmax)
	badGrad := NewModel(3, 2, Softmax)
	if _, err := Gradient(m2, d, badGrad); err == nil {
		t.Error("bad accumulator must error")
	}
}

func TestAccuracy(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	// A classifier aligned with the clusters: class 0 has positive coords.
	m.W.SetRow(0, []float64{1, 1})
	m.W.SetRow(1, []float64{-1, -1})
	acc, err := NewEvaluator(1).Accuracy(m, d)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc != 1 {
		t.Errorf("Accuracy = %v, want 1", acc)
	}
}

func TestGradientNormDecreasesNearOptimum(t *testing.T) {
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	before, err := GradientNorm(m, d)
	if err != nil {
		t.Fatalf("GradientNorm: %v", err)
	}
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.5})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.TrainFinal(m, d, 200); err != nil {
		t.Fatalf("Train: %v", err)
	}
	after, err := GradientNorm(m, d)
	if err != nil {
		t.Fatalf("GradientNorm: %v", err)
	}
	if after >= before {
		t.Errorf("gradient norm did not shrink: before %v, after %v", before, after)
	}
}
