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
	"runtime"
	"slices"
	"sync/atomic"

	"eefei/internal/core"
	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
	"eefei/internal/ml"
	"eefei/internal/par"
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
	// runs caches train's to-target runs.
	runs map[cell]*sim.Result
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
// accuracy target or roundCap rounds (≤ 0: the setup's RoundCap), with obs
// receiving per-round records (nil keeps the engine's no-observer path).
func (s *Setup) RunTraining(k, e int, seed uint64, roundCap int, obs fl.RoundObserver) (*sim.Result, error) {
	return s.trainOn(s.Shards, k, e, seed, roundCap, obs)
}

// trainOn is RunTraining on the given shards in place of the setup's.
func (s *Setup) trainOn(shards []*dataset.Dataset, k, e int, seed uint64, roundCap int, obs fl.RoundObserver) (*sim.Result, error) {
	cfg := s.simConfig(k, e, seed)
	cfg.Observer = obs
	system, err := sim.New(cfg, shards, s.Test)
	if err != nil {
		return nil, fmt.Errorf("K=%d E=%d: %w", k, e, err)
	}
	if roundCap <= 0 {
		roundCap = s.RoundCap
	}
	res, err := system.Run(fl.AnyOf(fl.TargetAccuracy(s.AccuracyTarget), fl.MaxRounds(roundCap)))
	if err != nil {
		return nil, fmt.Errorf("K=%d E=%d: %w", k, e, err)
	}
	return res, nil
}

// cell is one to-target training run the figures read a point from.
type cell struct {
	k, e int
	seed uint64
}

// train returns the to-target run of each cell, in the order asked. A
// distinct cell trains at most once per Setup: the missing ones run on
// inOrder's pool and later asks read the cached result. Runs are
// independent, so no result depends on the pool size.
func (s *Setup) train(cells []cell) ([]*sim.Result, error) {
	var missing []cell
	for _, c := range cells {
		if _, ok := s.runs[c]; !ok && !slices.Contains(missing, c) {
			missing = append(missing, c)
		}
	}
	runs := make([]*sim.Result, len(missing))
	if err := inOrder(len(missing), func(i int) (err error) {
		c := missing[i]
		runs[i], err = s.RunTraining(c.k, c.e, c.seed, 0, nil)
		return err
	}, nil); err != nil {
		return nil, err
	}
	if s.runs == nil {
		s.runs = make(map[cell]*sim.Result)
	}
	for i, c := range missing {
		s.runs[c] = runs[i]
	}
	out := make([]*sim.Result, len(cells))
	for i, c := range cells {
		out[i] = s.runs[c]
	}
	return out, nil
}

// inOrder runs run(0) … run(n−1) on the shared pool (internal/par) across
// GOMAXPROCS in the background and, on the calling goroutine, commit(i) in
// index order as soon as run(0) … run(i) have returned (a nil commit does
// nothing). Every experiment cell trains here. After the first failure, of
// a run or a commit, no new index starts; inOrder returns the lowest-index
// error once every started run has returned. Indices are claimed in order,
// so every index below a failed one has started: the error returned does
// not depend on the schedule.
func inOrder(n int, run, commit func(i int) error) error {
	done := make([]chan error, n)
	for i := range done {
		done[i] = make(chan error, 1)
	}
	// stop is an index that failed (n while none has). Every index up to it
	// was claimed before it was stored, so any later claim lies above it.
	var stop atomic.Int64
	stop.Store(int64(n))
	pool := make(chan struct{})
	go func() {
		defer close(pool)
		par.Do(n, runtime.GOMAXPROCS(0), par.Func(func(_, i int) {
			var err error
			if int64(i) <= stop.Load() {
				if err = run(i); err != nil {
					stop.Store(int64(i))
				}
			}
			done[i] <- err
		}))
	}()
	var first error
	for i, c := range done {
		// An index that was skipped sends nil, but only after a lower one
		// failed, so first is set by then.
		err := <-c
		if first != nil {
			continue
		}
		if err == nil && commit != nil {
			if err = commit(i); err != nil {
				stop.Store(int64(i))
			}
		}
		first = err
	}
	<-pool
	return first
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
