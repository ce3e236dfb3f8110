package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// visitLog records what Do handed to the job: a hit count per index and the
// largest worker id seen. Counters are atomic so the race detector checks Do,
// not the bookkeeping.
type visitLog struct {
	hits      []atomic.Int32
	maxWorker atomic.Int64
}

func (v *visitLog) Run(worker, index int) {
	v.hits[index].Add(1)
	for {
		seen := v.maxWorker.Load()
		if int64(worker) <= seen || v.maxWorker.CompareAndSwap(seen, int64(worker)) {
			return
		}
	}
}

// TestDoVisitsEveryIndexOnce is the pool's whole contract: every index in
// [0, n) exactly once, worker ids inside [0, used), used == min(workers, n)
// with a floor of 1 — at every pool size (run under -race by verify.sh).
func TestDoVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 3, 64} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				v := &visitLog{hits: make([]atomic.Int32, n)}
				v.maxWorker.Store(-1)
				used := Do(n, workers, v)
				if want := max(1, min(workers, n)); used != want {
					t.Errorf("used = %d, want %d", used, want)
				}
				for i := range v.hits {
					if got := v.hits[i].Load(); got != 1 {
						t.Errorf("index %d visited %d times", i, got)
					}
				}
				if w := v.maxWorker.Load(); w >= int64(used) {
					t.Errorf("worker id %d outside [0, %d)", w, used)
				}
			})
		}
	}
}

// orderLog appends visited indices; only valid on the inline path.
type orderLog struct{ seen []int }

func (o *orderLog) Run(worker, index int) {
	if worker == 0 {
		o.seen = append(o.seen, index)
	}
}

// TestDoInlineIsOrderedAndAllocationFree pins the sequential path the 0-alloc
// engine steps rely on: workers <= 1 visits in index order as worker 0,
// spawns nothing and allocates nothing.
func TestDoInlineIsOrderedAndAllocationFree(t *testing.T) {
	const n = 16
	for _, workers := range []int{0, 1} {
		o := &orderLog{seen: make([]int, 0, n)}
		allocs := testing.AllocsPerRun(50, func() {
			o.seen = o.seen[:0]
			Do(n, workers, o)
		})
		if allocs != 0 {
			t.Errorf("workers=%d: %v allocs/run on the inline path, want 0", workers, allocs)
		}
		if len(o.seen) != n {
			t.Fatalf("workers=%d: visited %v, want 0..%d as worker 0", workers, o.seen, n-1)
		}
		for i, got := range o.seen {
			if got != i {
				t.Fatalf("workers=%d: visit order %v, want index order", workers, o.seen)
			}
		}
	}
}
