// Package experiments reproduces every table and figure of the paper's
// evaluation section (Section VI). Each experiment has a harness returning
// structured rows/series and a renderer printing them the way the paper
// reports them; cmd/experiments and the repository-root benchmarks drive
// both. Experiments run at three scales: Quick (8×8 synthetic digits, 20
// servers × 100 samples — seconds on a laptop), Paper (28×28, 20 servers
// × 3000 samples, the prototype's dimensions), and Full (28×28, 100 servers
// × 600 of the 60k samples — the opt-in (K, E) sweep substrate, K up to 100).
package experiments

import (
	"errors"
	"fmt"

	"eefei/internal/core"
	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
	"eefei/internal/ml"
	"eefei/internal/sim"
)

// ErrExperiment is returned (wrapped) for invalid experiment parameters.
var ErrExperiment = errors.New("experiments: invalid setup")

// Scale selects the experiment size.
type Scale int

const (
	// Quick runs on the reduced synthetic dataset; all tests and default
	// benches use it.
	Quick Scale = iota + 1
	// Paper runs at the prototype's dimensions (28×28 MNIST-scale, 3000
	// samples per server); minutes of CPU.
	Paper
	// Full is the sweep-scale tier: the 60k-sample MNIST-shape dataset
	// spread over 100 edge servers so K can sweep the whole 1..100 grid.
	// Setup alone allocates hundreds of MB and a single (K, E) cell takes
	// minutes, so everything Full-scale is opt-in (EEFEI_FULL_SCALE=1).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Paper:
		return "paper"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("scale %q (want quick|paper|full): %w", s, ErrExperiment)
	}
}

// Setup bundles everything a training-based experiment needs.
type Setup struct {
	Scale   Scale
	Servers int
	// Shards are the per-server datasets.
	Shards []*dataset.Dataset
	// Test is the held-out evaluation set.
	Test *dataset.Dataset
	// AccuracyTarget is the "92%"-style stop threshold appropriate for the
	// scale.
	AccuracyTarget float64
	// RoundCap bounds runaway runs.
	RoundCap int
	// LearningRate, Decay are the SGD schedule.
	LearningRate, Decay float64

	// calibrated caches CalibrateProblem's fit, ε unfloored (the fit is
	// deterministic per setup).
	calibrated *core.Problem
	// fStar caches the centralized F(ω*) estimate.
	fStar *float64
	// union is every shard's rows back to back, the set F(ω*) trains on: a
	// view of the training set, which EqualShards left in shard order.
	union *dataset.Dataset
}

// NewSetup builds the shared substrate for a scale.
func NewSetup(scale Scale) (*Setup, error) {
	var dcfg dataset.SyntheticConfig
	s := &Setup{Scale: scale, Servers: 20, Decay: 0.99}
	switch scale {
	case Quick:
		dcfg = dataset.QuickSyntheticConfig()
		dcfg.Samples = 2000
		// Noise 0.42 puts the accuracy ceiling near 0.90 so the 0.89 target
		// sits in the slow-approach regime where the paper's K/E trade-offs
		// appear (E=1 needs ~170 rounds, E=20 ~17 — the Fig. 4d U-shape).
		dcfg.Noise = 0.42
		s.AccuracyTarget = 0.89
		s.RoundCap = 300
		s.LearningRate = 0.1
	case Paper:
		dcfg = dataset.DefaultSyntheticConfig()
		s.AccuracyTarget = 0.92
		s.RoundCap = 1000
		s.LearningRate = 0.01
	case Full:
		dcfg = dataset.DefaultSyntheticConfig()
		s.Servers = 100
		s.AccuracyTarget = 0.92
		s.RoundCap = 500
		s.LearningRate = 0.01
	default:
		return nil, fmt.Errorf("scale %v: %w", scale, ErrExperiment)
	}
	testSamples, err := testSplitSamples(dcfg.Samples)
	if err != nil {
		return nil, fmt.Errorf("%v scale: %w", scale, err)
	}
	testCfg := dcfg
	testCfg.Samples = testSamples
	var train, test *dataset.Dataset
	if scale == Full {
		// The 60k×784 generation is the dominant setup cost at Full scale;
		// the per-row-stream generator fills it on every core.
		train, test, err = dataset.SynthesizePairParallel(dcfg, testCfg, 0)
	} else {
		train, test, err = dataset.SynthesizePair(dcfg, testCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("synthesize %v data: %w", scale, err)
	}
	shards, err := dataset.EqualShards(train, s.Servers, 1)
	if err != nil {
		return nil, fmt.Errorf("shard %v data: %w", scale, err)
	}
	n := s.Servers * shards[0].Len()
	x := train.X.SliceRows(0, n)
	s.union = &dataset.Dataset{X: &x, Labels: train.Labels[:n:n], Classes: train.Classes}
	s.Shards = shards
	s.Test = test
	return s, nil
}

// testSplitSamples returns the held-out test-set size for a training-set
// size, Samples/6 like the paper's 60k/10k split, floored at 1 so tiny
// configs never produce an empty test set (a 0-row test set only surfaced
// later as an opaque evaluator error). Degenerate sizes are an explicit
// error.
func testSplitSamples(trainSamples int) (int, error) {
	if trainSamples < 1 {
		return 0, fmt.Errorf("degenerate dataset config: %d training samples: %w", trainSamples, ErrExperiment)
	}
	n := trainSamples / 6
	if n < 1 {
		n = 1
	}
	return n, nil
}

// SamplesPerServer returns n_k (uniform shards).
func (s *Setup) SamplesPerServer() int {
	if len(s.Shards) == 0 {
		return 0
	}
	return s.Shards[0].Len()
}

// flConfig builds the engine config for one (K, E) cell.
func (s *Setup) flConfig(k, e int, seed uint64) fl.Config {
	return fl.Config{
		ClientsPerRound: k,
		LocalEpochs:     e,
		LearningRate:    s.LearningRate,
		Decay:           s.Decay,
		Activation:      ml.Softmax,
		Seed:            seed,
	}
}

// simConfig builds the simulator config for one (K, E) cell.
func (s *Setup) simConfig(k, e int, seed uint64) sim.Config {
	return sim.Config{
		Servers:   s.Servers,
		FL:        s.flConfig(k, e, seed),
		Device:    energy.DefaultPiDeviceModel(),
		Uplink:    iot.DefaultNBIoTConfig(),
		Preloaded: true,
		Seed:      seed,
	}
}

// RunTraining runs a simulated federated training at (K, E) until the
// accuracy target or the round cap, returning the result.
func (s *Setup) RunTraining(k, e int, seed uint64) (*sim.Result, error) {
	return s.RunTrainingWith(k, e, seed, RunOptions{})
}

// RunOptions tunes a single training run beyond the setup defaults. The
// zero value reproduces RunTraining exactly.
type RunOptions struct {
	// RoundCap overrides the setup's round cap when > 0 — how sweep cells
	// and the full-scale smoke keep individual runs bounded.
	RoundCap int
	// AccuracyTarget overrides the setup's stop threshold when > 0.
	AccuracyTarget float64
	// Observer receives per-round observability records (phase timings);
	// nil keeps the engine's no-observer fast path.
	Observer fl.RoundObserver
}

// RunTrainingWith is RunTraining with per-run overrides.
func (s *Setup) RunTrainingWith(k, e int, seed uint64, opts RunOptions) (*sim.Result, error) {
	cfg := s.simConfig(k, e, seed)
	cfg.Observer = opts.Observer
	system, err := sim.New(cfg, s.Shards, s.Test)
	if err != nil {
		return nil, fmt.Errorf("K=%d E=%d: %w", k, e, err)
	}
	target := opts.AccuracyTarget
	if target <= 0 {
		target = s.AccuracyTarget
	}
	cap := opts.RoundCap
	if cap <= 0 {
		cap = s.RoundCap
	}
	res, err := system.Run(fl.AnyOf(fl.TargetAccuracy(target), fl.MaxRounds(cap)))
	if err != nil {
		return nil, fmt.Errorf("K=%d E=%d: %w", k, e, err)
	}
	return res, nil
}

// RoundsToAccuracy extracts the first round index (1-based count) at which
// the history reaches the accuracy target, or -1 if it never does.
func RoundsToAccuracy(history []fl.RoundRecord, target float64) int {
	for i, rec := range history {
		if rec.TestAccuracy >= target {
			return i + 1
		}
	}
	return -1
}
