package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eefei/internal/mat"
)

func TestSummarizeKnownSample(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	// Sample stddev with n−1: Σ(x−5)² = 32, 32/7 ≈ 4.571, sqrt ≈ 2.138.
	if math.Abs(s.StdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", s.StdDev)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.StdDev != 0 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Interpolation between order statistics.
	got, err := Quantile([]float64{0, 10}, 0.3)
	if err != nil || math.Abs(got-3) > 1e-12 {
		t.Errorf("Quantile(0.3) = %v (%v), want 3", got, err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q>1 must error")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("empty must error")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile must not sort the caller's slice")
	}
}

func TestSeedsDistinct(t *testing.T) {
	seeds := Seeds(7, 16)
	seen := make(map[uint64]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
}

// Property: for any sample, Min ≤ Median ≤ Max and the mean lies within
// [Min, Max].
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw%50)
		rng := mat.NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormScaled(0, 100)
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
