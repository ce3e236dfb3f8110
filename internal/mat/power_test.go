package mat

import (
	"errors"
	"math"
	"testing"
)

func TestGramLargestEigenvalueMatchesExplicit(t *testing.T) {
	rng := NewRNG(5)
	x := randomDense(rng, 30, 2)
	viaGram, err := GramLargestEigenvalue(x, 1e-10, 0, 3)
	if err != nil {
		t.Fatalf("GramLargestEigenvalue: %v", err)
	}
	// Explicit XᵀX/n = [a b; b d], whose top eigenvalue is, in closed form,
	// (a+d)/2 + √(((a−d)/2)² + b²).
	var a, b, d float64
	for i := 0; i < 30; i++ {
		u, v := x.At(i, 0), x.At(i, 1)
		a, b, d = a+u*u/30, b+u*v/30, d+v*v/30
	}
	explicit := (a+d)/2 + math.Hypot((a-d)/2, b)
	if math.Abs(viaGram-explicit) > 1e-6*(1+explicit) {
		t.Errorf("gram path %v vs explicit %v", viaGram, explicit)
	}
}

func TestGramLargestEigenvalueRankOne(t *testing.T) {
	// X with identical rows u: XᵀX/n = uuᵀ has top eigenvalue ‖u‖².
	u := []float64{1, 2, 2} // ‖u‖² = 9
	x := NewDense(10, 3)
	for i := 0; i < 10; i++ {
		copy(x.Row(i), u)
	}
	lambda, err := GramLargestEigenvalue(x, 1e-12, 0, 1)
	if err != nil {
		t.Fatalf("GramLargestEigenvalue: %v", err)
	}
	if math.Abs(lambda-9) > 1e-8 {
		t.Errorf("lambda = %v, want 9", lambda)
	}
}

func TestGramLargestEigenvalueErrors(t *testing.T) {
	if _, err := GramLargestEigenvalue(NewDense(0, 3), 1e-9, 0, 1); !errors.Is(err, ErrShape) {
		t.Errorf("empty = %v, want ErrShape", err)
	}
}
