//go:build !race

package flnet

import (
	"context"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
)

// TestWarmRoundAllocations pins what a warm K = 8 round over loopback TCP
// allocates, both ends counted: the round's own bookkeeping (targets, record,
// one goroutine per exchange) and nothing per parameter — frames are pooled,
// requests are encoded once and shared, replies decode in place, and the
// per-connection link state advances by pointer. It measures 24, as it did
// before the lossless bodies (the bench's flnet.allocs_per_round read 24–39
// then, timers and the runtime included); the pin leaves room for the history
// slice growing. Off under -race, like every pin that leans on sync.Pool
// keeping its buffers.
func TestWarmRoundAllocations(t *testing.T) {
	const fleet = 8
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 20 * fleet
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, fleet)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	coord, cleanup := benchCluster(t, shards, test, CoordinatorConfig{
		FL:           fl.Config{ClientsPerRound: fleet, LocalEpochs: 1, LearningRate: 0.1, Seed: 1},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
	})
	defer cleanup()
	ctx := context.Background()
	round := func() {
		if _, err := coord.Round(ctx); err != nil {
			t.Fatalf("round: %v", err)
		}
	}
	// Three rounds bring every connection to second-order bodies and the
	// snapshot free list to its steady size.
	for i := 0; i < 3; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(50, round); avg > 30 {
		t.Errorf("a warm K=%d round allocates %.1f objects, want ≤ 30", fleet, avg)
	} else {
		t.Logf("a warm K=%d round allocates %.1f objects", fleet, avg)
	}
}
