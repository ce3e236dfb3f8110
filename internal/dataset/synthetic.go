package dataset

import (
	"fmt"
	"math"
	"runtime"

	"eefei/internal/mat"
	"eefei/internal/par"
)

// SyntheticConfig controls the synthetic MNIST-like generator.
//
// The generator draws, per class, a fixed "prototype digit" — a sparse
// blob pattern on a Side×Side grid — and then produces samples as
// prototype + pixel noise, clipped to [0, 1] like normalized gray-scale
// images. The task is linearly separable up to the noise level, matching the
// regime where multinomial logistic regression reaches the paper's ~92%
// accuracy after enough federated rounds.
type SyntheticConfig struct {
	// Samples is the total number of samples to generate.
	Samples int
	// Classes is the number of digit classes (paper: 10).
	Classes int
	// Side is the image side length (paper: 28, features = Side²). Smaller
	// sides make tests fast while preserving the learning dynamics.
	Side int
	// Noise is the per-pixel Gaussian noise standard deviation. Around
	// 0.25–0.35 yields accuracy curves shaped like the paper's Fig. 4.
	Noise float64
	// BlobsPerClass is how many bright blobs compose each prototype.
	BlobsPerClass int
	// Seed makes generation fully deterministic.
	Seed uint64
}

// DefaultSyntheticConfig mirrors the paper's MNIST setup at full scale:
// 28×28 images, 10 classes.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Samples:       60000,
		Classes:       10,
		Side:          28,
		Noise:         0.30,
		BlobsPerClass: 4,
		Seed:          1,
	}
}

// QuickSyntheticConfig is a reduced-scale config for tests and quick benches:
// 8×8 images keep every matrix 64-wide so federated training runs in
// milliseconds while exhibiting the same convergence trade-offs.
func QuickSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Samples:       2000,
		Classes:       10,
		Side:          8,
		Noise:         0.30,
		BlobsPerClass: 3,
		Seed:          1,
	}
}

// Synthesize generates a dataset according to cfg. Identical configs produce
// identical datasets.
func Synthesize(cfg SyntheticConfig) (*Dataset, error) {
	return synthesize(cfg, cfg.Seed, 1, oneStream((*mat.RNG).Split))
}

// SynthesizePair generates a train/test split the way the paper uses MNIST
// (60k train, 10k test): the test set comes from the same prototypes with an
// independent noise stream. Both streams derive from train.Seed, so test.Seed
// is ignored: only test's size, shape and noise level are read.
func SynthesizePair(train, test SyntheticConfig) (*Dataset, *Dataset, error) {
	tr, err := Synthesize(train)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize train: %w", err)
	}
	te, err := SynthesizeTest(train.Seed, test)
	if err != nil {
		return nil, nil, err
	}
	return tr, te, nil
}

// SynthesizeTest generates SynthesizePair's test set alone: it equals the
// pair's second result for a train config with seed trainSeed, without
// generating the training set.
func SynthesizeTest(trainSeed uint64, test SyntheticConfig) (*Dataset, error) {
	te, err := synthesize(test, trainSeed, 1, oneStream(func(*mat.RNG) *mat.RNG {
		return mat.NewRNG(trainSeed ^ (0xabcdef<<8 + 1))
	}))
	if err != nil {
		return nil, fmt.Errorf("synthesize test: %w", err)
	}
	return te, nil
}

// SynthesizeParallel generates the same class-conditional distribution as
// Synthesize, but each row draws its noise from an independent stream
// derived from (seed, stream, row), so generation fans out across workers
// and is bit-identical for every worker count (including 1). The stream
// layout necessarily differs from Synthesize's single sequential walk, so
// the two generators produce different — equally distributed — datasets for
// the same config; large-N callers (the Full experiment tier, 60k×784)
// use this path, the committed quick/paper artifacts keep the original.
// workers <= 0 selects GOMAXPROCS.
func SynthesizeParallel(cfg SyntheticConfig, workers int) (*Dataset, error) {
	return synthesize(cfg, cfg.Seed, workers, rowStreams(cfg.Seed, 0, cfg.Samples))
}

// SynthesizePairParallel mirrors SynthesizePair for the per-row-stream
// generator: train and test share prototypes but draw disjoint noise
// streams. As in SynthesizePair, both derive from train.Seed and test.Seed
// is ignored.
func SynthesizePairParallel(train, test SyntheticConfig, workers int) (*Dataset, *Dataset, error) {
	tr, err := SynthesizeParallel(train, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize train: %w", err)
	}
	te, err := synthesize(test, train.Seed, workers, rowStreams(train.Seed, 1, test.Samples))
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize test: %w", err)
	}
	return tr, te, nil
}

// A layout places a generator's randomness. Given the prototype stream as the
// prototypes left it, it returns row i's pixel-noise stream and a func that,
// called once every row is filled, returns the stream that shuffles them.
// noise may return rng, the filling worker's own RNG, reseeded for the row.
type layout func(proto *mat.RNG) (noise func(rng *mat.RNG, row int) *mat.RNG, shuffle func() *mat.RNG)

// oneStream draws every row's noise, in row order, from the one stream start
// returns, and shuffles with a split of it taken after the last row. Rows
// sharing a stream must be filled by one worker.
func oneStream(start func(proto *mat.RNG) *mat.RNG) layout {
	return func(proto *mat.RNG) (func(*mat.RNG, int) *mat.RNG, func() *mat.RNG) {
		rng := start(proto)
		return func(*mat.RNG, int) *mat.RNG { return rng }, rng.Split
	}
}

// rowStreams gives each row a private noise stream seeded from (seed,
// stream, row), and the shuffle one seeded past the last row, so rows can be
// filled in any order by any number of workers. A row's stream is the
// worker's RNG reseeded (NewRNG's stream, without an allocation per row).
func rowStreams(seed, stream uint64, samples int) layout {
	return func(*mat.RNG) (func(*mat.RNG, int) *mat.RNG, func() *mat.RNG) {
		return func(rng *mat.RNG, i int) *mat.RNG {
				rng.Reseed(rowStreamSeed(seed, stream, uint64(i)))
				return rng
			},
			func() *mat.RNG { return mat.NewRNG(rowStreamSeed(seed, stream, uint64(samples)+0x5157)) }
	}
}

// rowStreamSeed hashes (seed, stream, row) into the seed of that row's
// private noise RNG (SplitMix64 finalizer, same constants as mat.RNG).
func rowStreamSeed(seed, stream, row uint64) uint64 {
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15 ^ row*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthesize is the one generator body: it draws cfg.Classes prototypes from
// protoSeed, fills row i with prototype i mod Classes plus noise from the
// layout's stream for that row, and shuffles the rows. Rows are claimed in
// fixed-size chunks off the shared pool (par.Do), so with per-row streams any
// pool size writes exactly the same bytes; one worker fills them in order.
// Each worker owns one RNG for the layout to reseed, so the allocations do
// not grow with the rows. workers <= 0 selects GOMAXPROCS.
func synthesize(cfg SyntheticConfig, protoSeed uint64, workers int, streams layout) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Classes <= 0 || cfg.Side <= 0 {
		return nil, fmt.Errorf("dataset: invalid synthetic config %+v", cfg)
	}
	if cfg.BlobsPerClass <= 0 {
		cfg.BlobsPerClass = 3
	}
	protoRNG := mat.NewRNG(protoSeed)
	prototypes := make([]*mat.Dense, cfg.Classes)
	for c := range prototypes {
		prototypes[c] = classPrototype(protoRNG, cfg.Side, cfg.BlobsPerClass)
	}
	noise, shuffle := streams(protoRNG)
	out := &Dataset{
		X:       mat.NewDense(cfg.Samples, cfg.Side*cfg.Side),
		Labels:  make([]int, cfg.Samples),
		Classes: cfg.Classes,
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const chunk = 256
	chunks := (cfg.Samples + chunk - 1) / chunk
	// A cache line apart: every noise draw writes its worker's RNG.
	rngs := make([]struct {
		mat.RNG
		_ [64]byte
	}, min(workers, chunks))
	par.Do(chunks, workers, par.Func(func(w, ci int) {
		hi := min((ci+1)*chunk, cfg.Samples)
		for i := ci * chunk; i < hi; i++ {
			rng := noise(&rngs[w].RNG, i)
			c := i % cfg.Classes // perfectly balanced classes, like MNIST approximately is
			out.Labels[i] = c
			row := out.X.Row(i)
			proto := prototypes[c].RawData()
			for j := range row {
				row[j] = mat.Clamp(proto[j]+rng.NormScaled(0, cfg.Noise), 0, 1)
			}
		}
	}))
	// Shuffle so that class order carries no information for partitioners.
	out.Shuffle(shuffle())
	return out, nil
}

// classPrototype paints BlobsPerClass Gaussian bright blobs at random
// positions on a Side×Side canvas, producing an MNIST-digit-like intensity
// pattern in [0, 1].
func classPrototype(rng *mat.RNG, side, blobs int) *mat.Dense {
	img := mat.NewDense(side, side)
	sigma := float64(side) / 7
	for b := 0; b < blobs; b++ {
		cx := 1 + rng.Float64()*float64(side-2)
		cy := 1 + rng.Float64()*float64(side-2)
		amp := 0.6 + 0.4*rng.Float64()
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				dx := float64(x) - cx
				dy := float64(y) - cy
				v := img.At(y, x) + amp*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
				img.Set(y, x, mat.Clamp(v, 0, 1))
			}
		}
	}
	return img
}
