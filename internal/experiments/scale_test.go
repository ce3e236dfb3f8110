package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestInOrder pins the helper every experiment cell trains through: commits
// in index order whatever order runs finish in, the lowest-index error, and
// no new start after a failure.
func TestInOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	t.Run("reverse finish commits in order", func(t *testing.T) {
		const n = 4
		runtime.GOMAXPROCS(n)
		// run(i) returns only after run(i+1) has, so they finish n−1 … 0;
		// each close orders the appends.
		returned := make([]chan struct{}, n+1)
		for i := range returned {
			returned[i] = make(chan struct{})
		}
		close(returned[n])
		var finished, committed []int
		err := inOrder(n, func(i int) error {
			<-returned[i+1]
			finished = append(finished, i)
			close(returned[i])
			return nil
		}, func(i int) error {
			committed = append(committed, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(finished, []int{3, 2, 1, 0}) || !slices.Equal(committed, []int{0, 1, 2, 3}) {
			t.Errorf("finished %v, committed %v; want [3 2 1 0], [0 1 2 3]", finished, committed)
		}
	})

	t.Run("lowest-index error wins", func(t *testing.T) {
		const n = 8
		runtime.GOMAXPROCS(n)
		// Index 5 fails first; index 3 fails only after it.
		failed5 := make(chan struct{})
		var committed []int
		err := inOrder(n, func(i int) error {
			switch i {
			case 3:
				<-failed5
				return fmt.Errorf("run %d", i)
			case 5:
				defer close(failed5)
				return fmt.Errorf("run %d", i)
			}
			return nil
		}, func(i int) error {
			committed = append(committed, i)
			return nil
		})
		if err == nil || err.Error() != "run 3" {
			t.Errorf("error = %v, want run 3's", err)
		}
		if !slices.Equal(committed, []int{0, 1, 2}) {
			t.Errorf("committed %v, want [0 1 2]", committed)
		}
	})

	t.Run("commit error stops new starts", func(t *testing.T) {
		const n = 200
		runtime.GOMAXPROCS(1)
		errCommit := errors.New("commit")
		var started, commits atomic.Int64
		err := inOrder(n, func(int) error {
			started.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}, func(int) error {
			commits.Add(1)
			return errCommit
		})
		if !errors.Is(err, errCommit) {
			t.Errorf("error = %v, want the commit's", err)
		}
		if commits.Load() != 1 {
			t.Errorf("%d commits, want 1", commits.Load())
		}
		if got := started.Load(); got >= n {
			t.Errorf("all %d runs started after the first commit failed", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		called := func(int) error { t.Error("called with n = 0"); return nil }
		if err := inOrder(0, called, called); err != nil {
			t.Errorf("error = %v, want nil", err)
		}
	})
}
