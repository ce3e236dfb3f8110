package energy

import (
	"math"
	"testing"
	"time"

	"eefei/internal/mat"
)

// refEnergyBetween is an independent reference for the trapezoid window
// integral: per overlapped segment it sums 64 midpoint sub-intervals of the
// linearly-interpolated power. The midpoint rule is exact for linear
// integrands, so agreement is up to float rounding only.
func refEnergyBetween(tr *Trace, from, to time.Duration) float64 {
	if to < from {
		from, to = to, from
	}
	var joules float64
	for i := 1; i < len(tr.Samples); i++ {
		a, b := tr.Samples[i-1], tr.Samples[i]
		lo, hi := a.T, b.T
		if from > lo {
			lo = from
		}
		if to < hi {
			hi = to
		}
		if hi <= lo {
			continue
		}
		const steps = 64
		width := (hi - lo).Seconds() / steps
		for s := 0; s < steps; s++ {
			mid := lo + time.Duration((float64(s)+0.5)*width*float64(time.Second))
			joules += interp(a, b, mid) * width
		}
	}
	return joules
}

// FuzzEnergyBetween drives the windowed trapezoid integration against the
// analytic reference over randomized traces and windows: partial segment
// overlap, from before the first sample, to past the end, zero-width and
// inverted windows. Clamping must never produce negative or NaN joules.
func FuzzEnergyBetween(f *testing.F) {
	f.Add(uint64(1), uint8(16), int64(0), int64(50), uint16(0))
	f.Add(uint64(2), uint8(3), int64(-20), int64(1000), uint16(500)) // from < T0, to past end
	f.Add(uint64(3), uint8(8), int64(25), int64(25), uint16(100))    // zero-width
	f.Add(uint64(4), uint8(8), int64(40), int64(10), uint16(100))    // inverted
	f.Add(uint64(5), uint8(1), int64(0), int64(10), uint16(0))       // single sample
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, fromMs, toMs int64, startMs uint16) {
		rng := mat.NewRNG(seed)
		// Random trace: up to 64 samples, irregular 1–20 ms gaps, first
		// sample offset startMs (traces need not start at t=0), powers in
		// [0, 8) W.
		samples := int(n)%64 + 1
		tr := &Trace{SampleRate: 1000}
		ts := time.Duration(startMs) * time.Millisecond
		for i := 0; i < samples; i++ {
			tr.Samples = append(tr.Samples, Sample{T: ts, Watts: 8 * rng.Float64()})
			ts += time.Duration(1+rng.Intn(20)) * time.Millisecond
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("generated trace invalid: %v", err)
		}
		// Clamp the fuzzed window into a ±100 s band to keep the reference's
		// sub-interval arithmetic well-conditioned.
		from := time.Duration(fromMs%100_000) * time.Millisecond
		to := time.Duration(toMs%100_000) * time.Millisecond

		got := tr.EnergyBetween(from, to)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("EnergyBetween(%v, %v) = %v", from, to, got)
		}
		if got < 0 {
			t.Fatalf("EnergyBetween(%v, %v) = %v, want >= 0", from, to, got)
		}
		if to <= from {
			if got != 0 {
				t.Fatalf("empty window [%v, %v] = %v, want 0", from, to, got)
			}
			return
		}
		want := refEnergyBetween(tr, from, to)
		// Sub-interval midpoints truncate to whole nanoseconds, so the
		// reference carries ~1e-8 of jitter; 1e-6 relative still catches any
		// real clamping or interpolation defect.
		tol := 1e-6 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("EnergyBetween(%v, %v) = %.12g, reference %.12g", from, to, got, want)
		}
		// Whole-window energy bounds any sub-window.
		if total := tr.Energy(); got > total+tol {
			t.Fatalf("window energy %.12g exceeds whole-trace energy %.12g", got, total)
		}
	})
}
