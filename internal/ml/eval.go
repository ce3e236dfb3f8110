package ml

import (
	"fmt"

	"eefei/internal/dataset"
	"eefei/internal/par"
)

// evalChunk is the fixed row-block size evaluation passes are split into.
// Partial sums are always reduced in chunk order, so a metric's value
// depends only on this constant — never on how many workers computed the
// chunks. Changing it changes last-bit rounding of Loss.
const evalChunk = 256

// MinEvalRowsPerWorker is the spawn gate for evaluation fan-out: a parallel
// pass only spawns as many workers as leave each at least this many rows,
// mirroring mat's minRowsPerWorker. One evaluated row costs roughly a
// classes×features dot-product block — far less than a goroutine spawn —
// so small datasets (and small federated shards) evaluate sequentially.
// The gate only changes scheduling, never results: chunk/shard-order
// reduction keeps every worker count bit-identical.
const MinEvalRowsPerWorker = 512

// GatedWorkers caps a requested evaluation worker count so that each worker
// gets at least MinEvalRowsPerWorker of the rows, never returning less
// than 1. fl's shard-parallel global loss and the Evaluator's chunk
// fan-out share this gate.
func GatedWorkers(rows, workers int) int {
	if max := rows / MinEvalRowsPerWorker; workers > max {
		workers = max
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// Evaluator computes dataset-level metrics (loss, accuracy) with reusable
// per-worker scratch buffers and optional data parallelism. The zero worker
// count evaluates inline on the calling goroutine.
//
// An Evaluator is not safe for concurrent use; it is meant to be owned by
// one evaluation loop (the federated engine keeps one per eval worker).
// Results are bit-for-bit identical for every worker count.
type Evaluator struct {
	workers int
	// m, d, and pass describe the in-flight evaluation; they are stored on
	// the struct (rather than captured by closures) so that a pass performs
	// zero heap allocations after warm-up.
	m    *Model
	d    *dataset.Dataset
	pass evalPass
	// scratch holds one batched-forward chunk scratch per pool worker, its
	// only owner for the duration of a pass.
	scratch []fwdScratch
	// sums buffers per-chunk partial results between the map and reduce
	// halves of a pass.
	sums []float64
	// hits buffers per-chunk correct-prediction counts for Accuracy.
	hits []int
	errs []error
}

// evalPass selects which metric(s) a chunk worker computes.
type evalPass int

const (
	passLoss evalPass = iota
	passAccuracy
	passMetrics
)

// NewEvaluator returns an evaluator that fans each pass out over up to
// workers goroutines; workers <= 1 evaluates inline.
func NewEvaluator(workers int) *Evaluator {
	if workers < 1 {
		workers = 1
	}
	return &Evaluator{workers: workers}
}

// prepare sizes the per-worker scratch for a pass over d with model m and
// returns the chunk count.
func (ev *Evaluator) prepare(m *Model, d *dataset.Dataset) (int, error) {
	if d.Len() == 0 {
		return 0, dataset.ErrEmpty
	}
	if d.Dim() != m.Features() {
		return 0, fmt.Errorf("evaluate %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	chunks := (d.Len() + evalChunk - 1) / evalChunk
	if ev.scratch == nil {
		ev.scratch = make([]fwdScratch, ev.workers)
	}
	// The per-worker logits blocks themselves are sized inside the pass
	// (fwdScratch.ensureLogits), so idle workers of a gated pass never
	// allocate theirs.
	if cap(ev.sums) < chunks {
		ev.sums = make([]float64, chunks)
		ev.hits = make([]int, chunks)
		ev.errs = make([]error, chunks)
	}
	ev.sums = ev.sums[:chunks]
	ev.hits = ev.hits[:chunks]
	ev.errs = ev.errs[:chunks]
	return chunks, nil
}

// chunkJob is Evaluator as the pool job of its in-flight pass (a named type
// so Run stays out of the exported method set).
type chunkJob Evaluator

// Run implements par.Job: one chunk of the in-flight pass on worker w's
// scratch, writing the chunk's results into its own sums/hits/errs slot.
func (j *chunkJob) Run(w, chunk int) {
	ev := (*Evaluator)(j)
	lo := chunk * evalChunk
	hi := min(lo+evalChunk, ev.d.Len())
	wantLoss := ev.pass == passLoss || ev.pass == passMetrics
	wantHits := ev.pass == passAccuracy || ev.pass == passMetrics
	ev.sums[chunk], ev.hits[chunk], ev.errs[chunk] =
		forwardRowRange(ev.m, ev.d, lo, hi, &ev.scratch[w], wantLoss, wantHits)
}

// run executes one pass over every chunk of d on the shared pool (the
// evaluator itself is the job, so an inline pass allocates nothing) and
// returns the first chunk-order error.
func (ev *Evaluator) run(m *Model, d *dataset.Dataset, pass evalPass) error {
	ev.m, ev.d, ev.pass = m, d, pass
	par.Do(len(ev.sums), GatedWorkers(d.Len(), ev.workers), (*chunkJob)(ev))
	ev.m, ev.d = nil, nil
	for _, err := range ev.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Loss computes the mean loss of m over d — the same metric as the
// package-level Loss, summed block-wise (see evalChunk).
func (ev *Evaluator) Loss(m *Model, d *dataset.Dataset) (float64, error) {
	if _, err := ev.prepare(m, d); err != nil {
		return 0, err
	}
	if err := ev.run(m, d, passLoss); err != nil {
		return 0, err
	}
	var total float64
	for _, s := range ev.sums {
		total += s
	}
	return total / float64(d.Len()), nil
}

// Accuracy computes the fraction of rows of d that m classifies correctly:
// the rows whose Model.Predict equals the label, counted chunk by chunk on
// the batched logits without materializing a prediction slice.
func (ev *Evaluator) Accuracy(m *Model, d *dataset.Dataset) (float64, error) {
	if _, err := ev.prepare(m, d); err != nil {
		return 0, err
	}
	if err := ev.run(m, d, passAccuracy); err != nil {
		return 0, err
	}
	total := 0
	for _, h := range ev.hits {
		total += h
	}
	return float64(total) / float64(d.Len()), nil
}

// Metrics computes mean loss and accuracy in one forward sweep — each chunk's
// logits block is reused for both the loss and the argmax — returning values
// bit-identical to calling Loss and Accuracy separately, at roughly half the
// compute.
func (ev *Evaluator) Metrics(m *Model, d *dataset.Dataset) (loss, accuracy float64, err error) {
	if _, err := ev.prepare(m, d); err != nil {
		return 0, 0, err
	}
	if err := ev.run(m, d, passMetrics); err != nil {
		return 0, 0, err
	}
	var total float64
	hits := 0
	for _, s := range ev.sums {
		total += s
	}
	for _, h := range ev.hits {
		hits += h
	}
	n := float64(d.Len())
	return total / n, float64(hits) / n, nil
}
