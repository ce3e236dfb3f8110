package fl

import (
	"fmt"
	"math"

	"eefei/internal/ml"
	"eefei/internal/par"
)

// The Engine methods below are the round machinery Engine.Round runs
// around its selection and aggregation: the bounded training pool, local
// training, the evaluation tail, the phase clock and the commit. See
// DESIGN.md §7 "Round core".

// SetRoundObserver attaches (or, with nil, detaches) the per-round
// observability sink (phase timings, throughput, pool occupancy — see
// RoundStats). With no observer the round loop takes no timestamps at all.
// Must not be called while a round runs.
func (e *Engine) SetRoundObserver(o RoundObserver) { e.roundObs = o }

// SetMemSampling opts into sampling runtime.ReadMemStats around every
// observed round, filling RoundStats.Mallocs/AllocBytes. It has no effect
// without a RoundObserver.
func (e *Engine) SetMemSampling(on bool) { e.sampleMem = on }

// clock starts the round's phase clock, or returns the zero (off) clock when
// nobody observes: observability is pay-for-use, an unobserved round takes
// no timestamps and allocates nothing extra.
func (e *Engine) clock() PhaseClock {
	if e.roundObs == nil {
		return PhaseClock{}
	}
	return NewPhaseClock(e.sampleMem)
}

// finish stops the clock and hands the round's stats to the observer.
func (e *Engine) finish(pc *PhaseClock, round, workers int, claims []int) {
	if e.roundObs == nil {
		return
	}
	st := pc.Finish(round)
	st.Workers = workers
	st.WorkerClaims = claims
	e.roundObs.ObserveRound(st)
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

// pool runs n local trainings on the bounded worker pool: up to e.parallel
// workers, each owning one SGD (and thereby its gradient/probability/shuffle
// buffers and RNG object). Which worker trains which index is scheduling-
// dependent, but harmless: train reseeds the stream on every assignment, so
// the trajectory is identical for any pool size. The job reports failures
// through e.errs[index]; pool returns the first in index order, together
// with the pool size used and — on observed rounds — the per-worker claims.
func (e *Engine) pool(n int, job par.Job) (workers int, claims []int, err error) {
	workers = max(1, min(e.parallel, n))
	for len(e.sgds) < workers {
		e.sgds = append(e.sgds, ml.SGD{})
	}
	if cap(e.errs) < n {
		e.errs = make([]error, n)
	}
	e.errs = e.errs[:n]
	clear(e.errs)
	if e.roundObs != nil {
		claims = make([]int, workers)
		job = &claimCounter{job: job, claims: claims}
	}
	par.Do(n, workers, job)
	for _, err := range e.errs {
		if err != nil {
			return workers, claims, err
		}
	}
	return workers, claims, nil
}

// train runs the in-flight round's E epochs of local SGD at γ_t on worker
// w's optimizer over one client's shard, updating model in place, and
// returns the final epoch's loss. The mini-batch order must not depend on
// goroutine scheduling or pool size, so the stream is reseeded from
// (seed, client, round) on every assignment.
func (e *Engine) train(w int, model *ml.Model, client int) (float64, error) {
	sgd := &e.sgds[w]
	err := sgd.Reset(ml.SGDConfig{
		LearningRate: e.lr,
		BatchSize:    e.cfg.BatchSize,
		Seed:         e.cfg.Seed ^ uint64(client)<<32 ^ uint64(e.round),
	})
	if err != nil {
		return 0, err
	}
	return sgd.TrainFinal(model, e.shards[client], e.cfg.LocalEpochs)
}

// evaluate computes the global loss F(m) over all shards (see shardLossMap
// for the bit-identity and spawn-gate contracts) and, with a test set
// attached, the test accuracy (NaN otherwise).
func (e *Engine) evaluate(m *ml.Model) (loss, acc float64, err error) {
	loss, err = e.shardLoss.lossOf(m, e.shards, e.totalSamples, e.evalParallel)
	if err != nil {
		return 0, 0, fmt.Errorf("global loss: %w", err)
	}
	if e.test == nil {
		return loss, math.NaN(), nil
	}
	if e.testEval == nil {
		e.testEval = ml.NewEvaluator(e.evalParallel)
	}
	acc, err = e.testEval.Accuracy(m, e.test)
	if err != nil {
		return 0, 0, fmt.Errorf("accuracy: %w", err)
	}
	return loss, acc, nil
}

// commit publishes the scratch model as the new global.
func (e *Engine) commit() error { return e.global.CopyFrom(e.scratch) }
