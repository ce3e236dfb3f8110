package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions across 64 draws from distinct seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := NewRNG(4)
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance = %v, want ≈%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("only %d of 7 values seen", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(6)
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Norm variance = %v, want ≈1", variance)
	}
}

func TestNormScaled(t *testing.T) {
	r := NewRNG(7)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormScaled(10, 2)
	}
	if mean := sum / float64(n); math.Abs(mean-10) > 0.1 {
		t.Errorf("NormScaled mean = %v, want ≈10", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSample(t *testing.T) {
	r := NewRNG(9)
	s := r.Sample(10, 4)
	if len(s) != 4 {
		t.Fatalf("Sample len = %d, want 4", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid sample %v", s)
		}
		seen[v] = true
	}
	// Full sample is a permutation.
	if got := r.Sample(5, 5); len(got) != 5 {
		t.Errorf("Sample(5,5) len = %d", len(got))
	}
}

func TestSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Sample(3,4) must panic")
		}
	}()
	NewRNG(1).Sample(3, 4)
}

func TestBernoulli(t *testing.T) {
	r := NewRNG(10)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency = %v", p)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) must be false")
	}
	if !r.Bernoulli(1.5) {
		t.Error("Bernoulli(>1) must be true")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(12)
	child := parent.Split()
	// The two streams should not be identical.
	same := 0
	for i := 0; i < 32; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between parent and child streams", same)
	}
}

func TestReseedMatchesNewRNG(t *testing.T) {
	r := NewRNG(99)
	r.Norm() // leave a cached Gaussian spare behind
	r.Reseed(1234)
	fresh := NewRNG(1234)
	for i := 0; i < 32; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatal("Reseed must reproduce NewRNG's stream exactly")
		}
	}
	r.Reseed(7)
	fresh = NewRNG(7)
	if r.Norm() != fresh.Norm() {
		t.Error("Reseed must discard the cached Gaussian spare")
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	a, b := NewRNG(13), NewRNG(13)
	buf := make([]int, 17)
	for trial := 0; trial < 10; trial++ {
		p := a.Perm(17)
		b.PermInto(buf)
		for i := range p {
			if p[i] != buf[i] {
				t.Fatalf("trial %d: PermInto %v != Perm %v", trial, buf, p)
			}
		}
	}
}

// chiSquareCritical approximates the upper critical value of the χ²
// distribution via Wilson–Hilferty; z=3.09 corresponds to p ≈ 0.001.
func chiSquareCritical(df int) float64 {
	d := float64(df)
	const z = 3.09
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// chiSquareStat computes Σ (obs−exp)²/exp for equiprobable cells.
func chiSquareStat(counts []int, trials int) float64 {
	exp := float64(trials) / float64(len(counts))
	var stat float64
	for _, c := range counts {
		d := float64(c) - exp
		stat += d * d / exp
	}
	return stat
}

// TestIntnChiSquareSmall checks uniformity of Intn over small non-power-of-
// two bounds, the regime every client-selection draw lives in.
func TestIntnChiSquareSmall(t *testing.T) {
	for _, n := range []int{3, 7, 10, 23} {
		r := NewRNG(uint64(100 + n))
		const trials = 100000
		counts := make([]int, n)
		for i := 0; i < trials; i++ {
			counts[r.Intn(n)]++
		}
		if stat, crit := chiSquareStat(counts, trials), chiSquareCritical(n-1); stat > crit {
			t.Errorf("Intn(%d) χ² = %.1f > critical %.1f", n, stat, crit)
		}
	}
}

// TestIntnChiSquareHugeBound is the regression test for the modulo-bias bug
// class: with n = 3·2⁶¹, reducing Uint64 modulo n gives the three thirds of
// [0, n) probabilities 3/8, 3/8, 2/8 instead of 1/3 each (χ² ≈ 0.031·trials,
// astronomically over critical), while an unbiased bound keeps them
// equiprobable. Small-n bias is ~n/2⁶⁴ and invisible to any sampling test,
// so this is the bound where the bug class is actually falsifiable.
func TestIntnChiSquareHugeBound(t *testing.T) {
	const third = 1 << 61
	r := NewRNG(42)
	const trials = 30000
	var counts [3]int
	for i := 0; i < trials; i++ {
		counts[r.Intn(3*third)/third]++
	}
	if stat, crit := chiSquareStat(counts[:], trials), chiSquareCritical(2); stat > crit {
		t.Errorf("Intn(3<<61) χ² = %.1f > critical %.1f (counts %v): modulo-bias regression",
			stat, crit, counts)
	}
}

// TestPermChiSquare checks that every position of Perm(n) is marginally
// uniform over the n values.
func TestPermChiSquare(t *testing.T) {
	const n, trials = 6, 60000
	r := NewRNG(77)
	counts := make([][]int, n) // counts[pos][value]
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for i := 0; i < trials; i++ {
		for pos, v := range r.Perm(n) {
			counts[pos][v]++
		}
	}
	crit := chiSquareCritical(n - 1)
	for pos := range counts {
		if stat := chiSquareStat(counts[pos], trials); stat > crit {
			t.Errorf("Perm(%d) position %d χ² = %.1f > critical %.1f", n, pos, stat, crit)
		}
	}
}

// TestSampleChiSquare checks that every position of Sample(n, k) is
// marginally uniform over [0, n) — the property client selection relies on.
func TestSampleChiSquare(t *testing.T) {
	const n, k, trials = 10, 4, 60000
	r := NewRNG(88)
	counts := make([][]int, k)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	membership := make([]int, n)
	for i := 0; i < trials; i++ {
		for pos, v := range r.Sample(n, k) {
			counts[pos][v]++
			membership[v]++
		}
	}
	crit := chiSquareCritical(n - 1)
	for pos := range counts {
		if stat := chiSquareStat(counts[pos], trials); stat > crit {
			t.Errorf("Sample(%d,%d) position %d χ² = %.1f > critical %.1f", n, k, pos, stat, crit)
		}
	}
	// Each index should be selected in ≈ k/n of the trials.
	for v, c := range membership {
		got := float64(c) / float64(trials)
		if math.Abs(got-float64(k)/float64(n)) > 0.01 {
			t.Errorf("index %d membership frequency %.3f, want ≈ %.3f", v, got, float64(k)/float64(n))
		}
	}
}

// TestSampleMatchesPartialFisherYates pins Sample to the textbook partial
// Fisher–Yates over a materialized array, so the sparse map implementation
// cannot silently diverge from the dense reference.
func TestSampleMatchesPartialFisherYates(t *testing.T) {
	const n, k = 12, 5
	for seed := uint64(1); seed <= 20; seed++ {
		got := NewRNG(seed).Sample(n, k)
		ref := NewRNG(seed)
		a := make([]int, n)
		for i := range a {
			a[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + ref.Intn(n-i)
			a[i], a[j] = a[j], a[i]
		}
		for i := 0; i < k; i++ {
			if got[i] != a[i] {
				t.Fatalf("seed %d: sparse Sample %v != dense reference %v", seed, got, a[:k])
			}
		}
	}
}

// Property: Perm always returns a valid permutation for any size in [0, 64].
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 65)
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
