// Package par is the repo's one worker pool: a bounded set of goroutines
// claiming indices off a shared atomic cursor.
//
// Which worker runs which index is scheduling-dependent, so callers keep
// results bit-identical across pool sizes the same way everywhere: a job
// writes only state owned by its index (a result slot) or by its worker (a
// scratch buffer), and any reduction over the slots happens afterwards, in
// index order, on the calling goroutine.
package par

import (
	"sync"
	"sync/atomic"
)

// Job is one indexed unit of pool work. It is an interface rather than a
// func so a hot caller can pass a pointer it already holds: the conversion
// allocates nothing, which keeps the inline path of Do allocation-free.
type Job interface {
	// Run processes index on pool worker `worker`. Within one Do, worker is
	// in [0, used) and is never shared by two concurrent calls, so it can
	// key per-worker scratch.
	Run(worker, index int)
}

// Func adapts a plain function to Job for callers off any hot path.
type Func func(worker, index int)

// Run implements Job.
func (f Func) Run(worker, index int) { f(worker, index) }

// Do runs job over every index in [0, n) on min(workers, n) goroutines and
// returns that pool size (at least 1). With workers <= 1 it spawns nothing
// and visits the indices inline, in order, as worker 0.
func Do(n, workers int, job Job) (used int) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job.Run(0, i)
		}
		return 1
	}
	// The shared state lives in spawn so it heap-allocates only when
	// goroutines actually start.
	spawn(n, workers, job)
	return workers
}

func spawn(n, workers int, job Job) {
	// One struct, so the cursor and the WaitGroup escape as one allocation.
	var pool struct {
		cursor atomic.Int64
		wg     sync.WaitGroup
	}
	pool.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer pool.wg.Done()
			for i := int(pool.cursor.Add(1)) - 1; i < n; i = int(pool.cursor.Add(1)) - 1 {
				job.Run(w, i)
			}
		}(w)
	}
	pool.wg.Wait()
}
