package fl

import (
	"errors"
	"testing"

	"eefei/internal/ml"
)

func modelWith(val float64) *ml.Model {
	m := ml.NewModel(2, 2, ml.Softmax)
	m.W.Fill(val)
	for i := range m.B {
		m.B[i] = val
	}
	return m
}

func TestMeanAggregator(t *testing.T) {
	dst := ml.NewModel(2, 2, ml.Softmax)
	updates := []Update{
		{Client: 0, Model: modelWith(1)},
		{Client: 1, Model: modelWith(3)},
	}
	if err := Mean(dst, updates); err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if dst.W.At(0, 0) != 2 || dst.B[1] != 2 {
		t.Errorf("mean = %v / %v, want 2", dst.W.At(0, 0), dst.B[1])
	}
}

func TestMeanAggregatorEmpty(t *testing.T) {
	dst := ml.NewModel(2, 2, ml.Softmax)
	if err := Mean(dst, nil); !errors.Is(err, ErrAggregate) {
		t.Errorf("empty = %v, want ErrAggregate", err)
	}
}
