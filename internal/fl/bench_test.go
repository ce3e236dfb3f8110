package fl

import (
	"fmt"
	"testing"

	"eefei/internal/dataset"
)

// benchShards builds the Table-II-scale substrate: 2000 synthetic samples
// split IID across 20 edge servers, plus a held-out test set.
func benchShards(b *testing.B) ([]*dataset.Dataset, *dataset.Dataset) {
	b.Helper()
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 2000
	train, test, err := dataset.SynthesizePair(cfg, cfg)
	if err != nil {
		b.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 20)
	if err != nil {
		b.Fatalf("Partition: %v", err)
	}
	return shards, test
}

// BenchmarkRoundTable2 times the paper's Table-II configuration (K=10,
// E=40): one full FedAvg round including selection, parallel local training,
// aggregation, and global loss + test accuracy evaluation.
// TestWarmRoundAllocations pins its allocations; bench/'s train_inproc
// measures such rounds to ε on every core.
func BenchmarkRoundTable2(b *testing.B) {
	shards, test := benchShards(b)
	engine, err := NewEngine(Config{
		ClientsPerRound: 10, LocalEpochs: 40, LearningRate: 0.01, Decay: 0.99, Seed: 1,
	}, shards, WithTestSet(test))
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	// Warmup round: fills scratch and the runtime's goroutine free lists so
	// allocs/op is the steady-state figure.
	if _, err := engine.Round(); err != nil {
		b.Fatalf("warmup Round: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Round(); err != nil {
			b.Fatalf("Round: %v", err)
		}
	}
}

// BenchmarkRoundMiniBatch exercises the mini-batch local-training path
// (shuffle buffer + permutation-slice batches).
func BenchmarkRoundMiniBatch(b *testing.B) {
	shards, _ := benchShards(b)
	engine, err := NewEngine(Config{
		ClientsPerRound: 10, LocalEpochs: 5, LearningRate: 0.05, BatchSize: 32, Seed: 1,
	}, shards)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	if _, err := engine.Round(); err != nil { // warmup: steady-state allocs
		b.Fatalf("warmup Round: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Round(); err != nil {
			b.Fatalf("Round: %v", err)
		}
	}
}

// BenchmarkGlobalLoss measures the shard-parallel evaluation map-reduce on
// its own, sequential versus pooled.
func BenchmarkGlobalLoss(b *testing.B) {
	shards, _ := benchShards(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine, err := NewEngine(Config{
				ClientsPerRound: 10, LocalEpochs: 1, LearningRate: 0.05, Seed: 1,
			}, shards, WithEvalParallelism(workers))
			if err != nil {
				b.Fatalf("NewEngine: %v", err)
			}
			if _, err := engine.Round(); err != nil {
				b.Fatalf("warmup Round: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.GlobalLoss(); err != nil {
					b.Fatalf("GlobalLoss: %v", err)
				}
			}
		})
	}
}
