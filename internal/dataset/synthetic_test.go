package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"eefei/internal/mat"
)

func TestSynthesizeShape(t *testing.T) {
	cfg := QuickSyntheticConfig()
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if d.Len() != cfg.Samples {
		t.Errorf("Len = %d, want %d", d.Len(), cfg.Samples)
	}
	if d.Dim() != cfg.Side*cfg.Side {
		t.Errorf("Dim = %d, want %d", d.Dim(), cfg.Side*cfg.Side)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSynthesizePixelRange(t *testing.T) {
	d, err := Synthesize(QuickSyntheticConfig())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for _, v := range d.X.RawData() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !a.X.Equal(b.X, 0) {
		t.Error("same config must produce identical pixels")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same config must produce identical labels")
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a, _ := Synthesize(cfg)
	cfg.Seed = 2
	b, _ := Synthesize(cfg)
	if a.X.Equal(b.X, 0) {
		t.Error("different seeds must produce different pixels")
	}
}

func TestSynthesizeBalancedClasses(t *testing.T) {
	d, err := Synthesize(QuickSyntheticConfig())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	counts := classCounts(d)
	want := d.Len() / d.Classes
	for c, n := range counts {
		if n != want {
			t.Errorf("class %d count = %d, want %d", c, n, want)
		}
	}
}

func TestSynthesizeRejectsBadConfig(t *testing.T) {
	bad := []SyntheticConfig{
		{Samples: 0, Classes: 10, Side: 8},
		{Samples: 10, Classes: 0, Side: 8},
		{Samples: 10, Classes: 10, Side: 0},
	}
	for _, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
}

func TestSynthesizeClassesAreSeparable(t *testing.T) {
	// Nearest-prototype classification on held-out samples should beat 70%:
	// the prototypes plus bounded noise make classes mostly separable, the
	// precondition for the paper's ~92% logistic-regression accuracy.
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	// Class means from train.
	means := mat.NewDense(cfg.Classes, train.Dim())
	counts := make([]float64, cfg.Classes)
	for i := 0; i < train.Len(); i++ {
		mat.Axpy(means.Row(train.Labels[i]), 1, train.X.Row(i))
		counts[train.Labels[i]]++
	}
	for c := 0; c < cfg.Classes; c++ {
		mat.Scale(means.Row(c), 1/counts[c])
	}
	correct := 0
	diff := make([]float64, train.Dim())
	for i := 0; i < test.Len(); i++ {
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < cfg.Classes; c++ {
			mat.SubVec(diff, test.X.Row(i), means.Row(c))
			if d := mat.Norm2(diff); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.70 {
		t.Errorf("nearest-prototype accuracy = %.3f, want >= 0.70", acc)
	}
}

func TestSynthesizePairSharesPrototypes(t *testing.T) {
	// Train/test class means must be close (same prototypes), while the
	// individual samples differ (independent noise).
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	if train.X.Equal(test.X, 1e-9) {
		t.Error("train and test must not be identical")
	}
	trainMean := classMean(train, 0)
	testMean := classMean(test, 0)
	mat.SubVec(trainMean, trainMean, testMean)
	if dist := mat.Norm2(trainMean); dist > 0.1*float64(train.Dim()) {
		t.Errorf("class-0 means differ by %v; prototypes not shared?", dist)
	}
}

// TestSynthesizePairIgnoresTestSeed: both pair generators derive the test
// set from train.Seed, so test.Seed changes nothing.
func TestSynthesizePairIgnoresTestSeed(t *testing.T) {
	train := QuickSyntheticConfig()
	train.Samples = 300
	test := train
	test.Samples = 100
	other := test
	other.Seed = train.Seed + 41
	for name, pair := range map[string]func(train, test SyntheticConfig) (*Dataset, *Dataset, error){
		"SynthesizePair": SynthesizePair,
		"SynthesizePairParallel": func(train, test SyntheticConfig) (*Dataset, *Dataset, error) {
			return SynthesizePairParallel(train, test, 2)
		},
	} {
		_, want, err := pair(train, test)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, got, err := pair(train, other)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: test.Seed %d and %d yield different test sets", name, test.Seed, other.Seed)
		}
	}
}

func TestSynthesizeParallelBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1003 // not a multiple of the chunk size, to cover the tail
	base, err := SynthesizeParallel(cfg, 1)
	if err != nil {
		t.Fatalf("SynthesizeParallel(1): %v", err)
	}
	for _, workers := range []int{2, 3, 8, 0} { // 0 = GOMAXPROCS
		d, err := SynthesizeParallel(cfg, workers)
		if err != nil {
			t.Fatalf("SynthesizeParallel(%d): %v", workers, err)
		}
		if !d.X.Equal(base.X, 0) {
			t.Fatalf("workers=%d pixels differ from workers=1", workers)
		}
		for i := range d.Labels {
			if d.Labels[i] != base.Labels[i] {
				t.Fatalf("workers=%d labels differ from workers=1", workers)
			}
		}
	}
}

func TestSynthesizeParallelBalancedAndValid(t *testing.T) {
	cfg := QuickSyntheticConfig()
	d, err := SynthesizeParallel(cfg, 4)
	if err != nil {
		t.Fatalf("SynthesizeParallel: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	want := d.Len() / d.Classes
	for c, n := range classCounts(d) {
		if n != want {
			t.Errorf("class %d count = %d, want %d", c, n, want)
		}
	}
	for _, v := range d.X.RawData() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
}

func TestSynthesizePairParallelSharesPrototypes(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePairParallel(cfg, cfg, 4)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	if train.X.Equal(test.X, 1e-9) {
		t.Error("train and test must not be identical")
	}
	trainMean := classMean(train, 0)
	testMean := classMean(test, 0)
	mat.SubVec(trainMean, trainMean, testMean)
	if dist := mat.Norm2(trainMean); dist > 0.1*float64(train.Dim()) {
		t.Errorf("class-0 means differ by %v; prototypes not shared?", dist)
	}
}

func TestSynthesizePairParallelDeterministic(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a1, b1, err := SynthesizePairParallel(cfg, cfg, 2)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	a2, b2, err := SynthesizePairParallel(cfg, cfg, 7)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	if !a1.X.Equal(a2.X, 0) || !b1.X.Equal(b2.X, 0) {
		t.Error("pair synthesis must be bit-identical across worker counts")
	}
}

func TestSynthesizeParallelRejectsBadConfig(t *testing.T) {
	bad := []SyntheticConfig{
		{Samples: 0, Classes: 10, Side: 8},
		{Samples: 10, Classes: 0, Side: 8},
		{Samples: 10, Classes: 10, Side: 0},
	}
	for _, cfg := range bad {
		if _, err := SynthesizeParallel(cfg, 2); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
		if _, _, err := SynthesizePairParallel(cfg, cfg, 2); err == nil {
			t.Errorf("pair config %+v must be rejected", cfg)
		}
	}
}

func classMean(d *Dataset, class int) []float64 {
	mean := make([]float64, d.Dim())
	var n float64
	for i := 0; i < d.Len(); i++ {
		if d.Labels[i] != class {
			continue
		}
		mat.Axpy(mean, 1, d.X.Row(i))
		n++
	}
	if n > 0 {
		mat.Scale(mean, 1/n)
	}
	return mean
}

// digest is a SHA-256 over d's pixel bits and labels, little-endian.
func digest(d *Dataset) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.X.RawData() {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, y := range d.Labels {
		binary.LittleEndian.PutUint64(b[:], uint64(y))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSynthesizeGoldenDigests pins every generator entry point's output bit
// for bit, so a refactor of the generator cannot move a dataset (and with it
// every trained weight and quoted figure) unnoticed. The train set spans two
// row chunks and BlobsPerClass is left to its default.
func TestSynthesizeGoldenDigests(t *testing.T) {
	train := SyntheticConfig{Samples: 300, Classes: 10, Side: 5, Noise: 0.3, Seed: 11}
	test := train
	test.Samples, test.Seed = 70, 12
	seqTrain, seqTest, err := SynthesizePair(train, test)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	parTrain, parTest, err := SynthesizePairParallel(train, test, 3)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	seqTestAlone, err := SynthesizeTest(train.Seed, test)
	if err != nil {
		t.Fatalf("SynthesizeTest: %v", err)
	}
	seq, err := Synthesize(train)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	par1, err := SynthesizeParallel(train, 1)
	if err != nil {
		t.Fatalf("SynthesizeParallel(1): %v", err)
	}
	par3, err := SynthesizeParallel(train, 3)
	if err != nil {
		t.Fatalf("SynthesizeParallel(3): %v", err)
	}
	for _, c := range []struct {
		name string
		d    *Dataset
		want string
	}{
		{"Synthesize", seq, "7e6780a51988b44744198eb14e53c6d980788206b6edc0e0a3358c7d818abfc4"},
		{"SynthesizePair train", seqTrain, "7e6780a51988b44744198eb14e53c6d980788206b6edc0e0a3358c7d818abfc4"},
		{"SynthesizePair test", seqTest, "9d73870c904114b8f49a282e8430a9fcc8b5b7a59ba2e1d928ed367896cf15d7"},
		{"SynthesizeTest", seqTestAlone, "9d73870c904114b8f49a282e8430a9fcc8b5b7a59ba2e1d928ed367896cf15d7"},
		{"SynthesizeParallel workers=1", par1, "eded43905ea4c7d13bf4431419d93ed42d78687019884a3e5ecfed7e6283054f"},
		{"SynthesizeParallel workers=3", par3, "eded43905ea4c7d13bf4431419d93ed42d78687019884a3e5ecfed7e6283054f"},
		{"SynthesizePairParallel train", parTrain, "eded43905ea4c7d13bf4431419d93ed42d78687019884a3e5ecfed7e6283054f"},
		{"SynthesizePairParallel test", parTest, "1d1020ec8301940a903eef708e90390ea70ad9003127a8e05a27c10fcccd4f75"},
	} {
		if got := digest(c.d); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSynthesizeParallelAllocationsFlat: the per-row noise streams reuse one
// RNG per worker, so generating four times the rows allocates no more
// objects — the buffers grow, their count does not.
func TestSynthesizeParallelAllocationsFlat(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			allocs := func(samples int) float64 {
				cfg := SyntheticConfig{Samples: samples, Classes: 10, Side: 5, Noise: 0.3, Seed: 11}
				return testing.AllocsPerRun(20, func() {
					if _, err := SynthesizeParallel(cfg, workers); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1000), allocs(4000)
			t.Logf("%v allocations for 1000 rows, %v for 4000", small, large)
			if large > small {
				t.Errorf("%v allocations for 4000 rows, %v for 1000: allocations grow with the rows", large, small)
			}
		})
	}
}
