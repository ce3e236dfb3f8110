package fl

import (
	"fmt"

	"eefei/internal/dataset"
	"eefei/internal/ml"
	"eefei/internal/par"
)

// shardLossMap is Engine's shard-parallel global-loss map-reduce: up to
// `workers` goroutines each own an ml.Evaluator (whose chunk-GEMM forward
// scratch is reused across rounds) and claim whole shards off the shared
// pool (par.Do); each shard's loss lands in its own slot and the weighted
// losses are reduced in shard order, so the value is bit-identical for every
// worker count. A min-work spawn gate
// (ml.GatedWorkers, à la mat.minRowsPerWorker) keeps tiny-shard evaluations
// sequential, where goroutine overhead would dominate the row work.
//
// The in-flight pass state (model, shards) lives on the struct rather than in
// closures — the map itself is the par.Job — so the sequential path, the one
// TestWarmRoundAllocations pins through GlobalLoss, performs no heap
// allocations after warm-up.
type shardLossMap struct {
	evals  []*ml.Evaluator
	losses []float64
	errs   []error

	// In-flight pass; valid only while lossOf runs.
	m      *ml.Model
	shards []*dataset.Dataset
}

// init sizes the per-shard reduction buffers for n shards.
func (s *shardLossMap) init(n int) {
	s.losses = make([]float64, n)
	s.errs = make([]error, n)
}

// lossOf evaluates the global objective F(ω) = Σ_k (n_k/n)·F_k(ω) of m over
// the shards, fanning out over at most `workers` goroutines (gated by total
// row work and the shard count).
func (s *shardLossMap) lossOf(m *ml.Model, shards []*dataset.Dataset, totalSamples, workers int) (float64, error) {
	workers = max(1, min(ml.GatedWorkers(totalSamples, workers), len(shards)))
	for len(s.evals) < workers {
		s.evals = append(s.evals, ml.NewEvaluator(1))
	}
	s.m, s.shards = m, shards
	par.Do(len(shards), workers, s)
	s.m, s.shards = nil, nil
	var weighted float64
	for i, sh := range shards {
		if s.errs[i] != nil {
			return 0, fmt.Errorf("shard %d loss: %w", i, s.errs[i])
		}
		weighted += s.losses[i] * float64(sh.Len())
	}
	return weighted / float64(totalSamples), nil
}

// Run implements par.Job: shard i's loss of the in-flight pass, on worker w's
// evaluator.
func (s *shardLossMap) Run(w, i int) {
	s.losses[i], s.errs[i] = s.evals[w].Loss(s.m, s.shards[i])
}
