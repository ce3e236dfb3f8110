package fl

import (
	"fmt"
	"math"
	"runtime"

	"eefei/internal/dataset"
	"eefei/internal/ml"
	"eefei/internal/par"
)

// core is the round machinery Engine and AsyncEngine share: the validated
// fleet, the global model and the scratch model a round is built and
// evaluated in before commit publishes it, the bounded training pool with
// its per-worker optimizers, the evaluation tail and the observer state.
// What differs stays with each engine — selection, the Aggregator and the
// per-slot models for Engine; the virtual-time heap, dispatch snapshots,
// staleness mix and drop path for AsyncEngine. See DESIGN.md §7 "Round core".
type core struct {
	shards       []*dataset.Dataset
	totalSamples int
	test         *dataset.Dataset
	global       *ml.Model
	scratch      *ml.Model
	parallel     int
	evalParallel int
	roundObs     RoundObserver
	sampleMem    bool

	// sgds is indexed by pool worker (a worker trains its claimed indices
	// sequentially), errs by pool index.
	sgds []ml.SGD
	errs []error
	// Evaluation scratch: the shard-parallel loss map-reduce and a
	// chunk-parallel evaluator for the test set.
	shardLoss shardLossMap
	testEval  *ml.Evaluator
}

// newCore validates the fleet — non-empty, every shard valid and of one
// shape — and sizes the models and pools over it. Violations wrap sentinel.
func newCore(shards []*dataset.Dataset, test *dataset.Dataset, act ml.Activation, sentinel error) (core, error) {
	if len(shards) == 0 {
		return core{}, fmt.Errorf("no shards: %w", sentinel)
	}
	dim, classes := shards[0].Dim(), shards[0].Classes
	total := 0
	for i, s := range shards {
		if err := s.Validate(); err != nil {
			return core{}, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.Dim() != dim || s.Classes != classes {
			return core{}, fmt.Errorf("shard %d shape %d/%d differs from shard 0 %d/%d: %w",
				i, s.Dim(), s.Classes, dim, classes, sentinel)
		}
		total += s.Len()
	}
	if act == 0 {
		act = ml.Softmax
	}
	c := core{
		shards:       shards,
		totalSamples: total,
		test:         test,
		global:       ml.NewModel(classes, dim, act),
		scratch:      ml.NewModel(classes, dim, act),
		parallel:     poolSize(0),
		evalParallel: poolSize(0),
	}
	c.shardLoss.init(len(shards))
	return c, nil
}

// poolSize resolves a parallelism knob: 0 (or less) selects GOMAXPROCS.
func poolSize(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SetRoundObserver attaches (or, with nil, detaches) the per-round
// observability sink after construction — cmd/feisim uses this to wire its
// -trace flag. Must not be called while a round or step runs.
func (c *core) SetRoundObserver(o RoundObserver) { c.roundObs = o }

// SetMemSampling opts into sampling runtime.ReadMemStats around every
// observed round, filling RoundStats.Mallocs/AllocBytes. It has no effect
// without a RoundObserver.
func (c *core) SetMemSampling(on bool) { c.sampleMem = on }

// clock starts the round's phase clock, or returns the zero (off) clock when
// nobody observes: observability is pay-for-use, an unobserved round takes
// no timestamps and allocates nothing extra.
func (c *core) clock() PhaseClock {
	if c.roundObs == nil {
		return PhaseClock{}
	}
	return NewPhaseClock(c.sampleMem)
}

// finish stops the clock and hands the round's stats to the observer.
func (c *core) finish(pc *PhaseClock, round, workers int, claims []int, dropped int) {
	if c.roundObs == nil {
		return
	}
	st := pc.Finish(round)
	st.Workers = workers
	st.WorkerClaims = claims
	st.Dropped = dropped
	c.roundObs.ObserveRound(st)
}

// claimCounter wraps a pool job to count the indices each worker claimed —
// the pool occupancy an observer sees. claims[w] is written by worker w only.
type claimCounter struct {
	job    par.Job
	claims []int
}

func (cc *claimCounter) Run(worker, index int) {
	cc.claims[worker]++
	cc.job.Run(worker, index)
}

// pool runs n local trainings on the bounded worker pool: up to c.parallel
// workers, each owning one SGD (and thereby its gradient/probability/shuffle
// buffers and RNG object). Which worker trains which index is scheduling-
// dependent, but harmless: train reseeds the stream on every assignment, so
// the trajectory is identical for any pool size. The job reports failures
// through c.errs[index]; pool returns the first in index order, together
// with the pool size used and — on observed rounds — the per-worker claims.
func (c *core) pool(n int, job par.Job) (workers int, claims []int, err error) {
	workers = max(1, min(c.parallel, n))
	for len(c.sgds) < workers {
		c.sgds = append(c.sgds, ml.SGD{})
	}
	if cap(c.errs) < n {
		c.errs = make([]error, n)
	}
	c.errs = c.errs[:n]
	clear(c.errs)
	if c.roundObs != nil {
		claims = make([]int, workers)
		job = &claimCounter{job: job, claims: claims}
	}
	par.Do(n, workers, job)
	for _, err := range c.errs {
		if err != nil {
			return workers, claims, err
		}
	}
	return workers, claims, nil
}

// train runs epochs of local SGD on worker w's optimizer over one client's
// shard, updating model in place, and returns the final epoch's loss. The
// mini-batch order must not depend on goroutine scheduling or pool size, so
// the stream is reseeded from (cfg.Seed, client, t) — t being the round or
// version the task belongs to — on every assignment. proxRef is the FedProx
// anchor (nil for none).
func (c *core) train(w int, model *ml.Model, client, t int, cfg ml.SGDConfig, epochs int, proxRef *ml.Model) (float64, error) {
	cfg.Seed ^= uint64(client)<<32 ^ uint64(t)
	sgd := &c.sgds[w]
	if err := sgd.Reset(cfg); err != nil {
		return 0, err
	}
	sgd.SetProximalRef(proxRef)
	return sgd.TrainFinal(model, c.shards[client], epochs)
}

// evaluate computes the global loss F(m) over all shards (see shardLossMap
// for the bit-identity and spawn-gate contracts) and, with a test set
// attached, the test accuracy (NaN otherwise).
func (c *core) evaluate(m *ml.Model) (loss, acc float64, err error) {
	loss, err = c.shardLoss.lossOf(m, c.shards, c.totalSamples, c.evalParallel)
	if err != nil {
		return 0, 0, fmt.Errorf("global loss: %w", err)
	}
	if c.test == nil {
		return loss, math.NaN(), nil
	}
	if c.testEval == nil {
		c.testEval = ml.NewEvaluator(c.evalParallel)
	}
	acc, err = c.testEval.Accuracy(m, c.test)
	if err != nil {
		return 0, 0, fmt.Errorf("accuracy: %w", err)
	}
	return loss, acc, nil
}

// commit publishes the scratch model as the new global.
func (c *core) commit() error { return c.global.CopyFrom(c.scratch) }
