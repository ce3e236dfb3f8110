package fl

import (
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/ml"
)

// TestGlobalLossSpawnGate: the min-work spawn gate in shardLossMap.lossOf
// (ml.GatedWorkers over totalSamples) only changes scheduling. At tiny shard counts/sizes — where the gate
// forces the map-reduce sequential — the global loss must be bit-identical
// to an engine configured with explicit sequential evaluation, and to one
// requesting far more workers than the gate will grant.
func TestGlobalLossSpawnGate(t *testing.T) {
	tests := []struct {
		name    string
		samples int
		shards  int
	}{
		{"tiny below gate", 300, 3}, // 300 < MinEvalRowsPerWorker: forced sequential
		{"one quota", ml.MinEvalRowsPerWorker, 2},
		{"two quotas few shards", 2 * ml.MinEvalRowsPerWorker, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := dataset.QuickSyntheticConfig()
			cfg.Samples = tt.samples
			train, test, err := dataset.SynthesizePair(cfg, cfg)
			if err != nil {
				t.Fatalf("SynthesizePair: %v", err)
			}
			shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, tt.shards)
			if err != nil {
				t.Fatalf("Partition: %v", err)
			}
			flCfg := quickConfig()
			flCfg.ClientsPerRound = tt.shards

			lossWith := func(evalWorkers int) float64 {
				engine, err := NewEngine(flCfg, shards, WithTestSet(test),
					pools(0, evalWorkers))
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				if _, err := engine.Run(MaxRounds(2)); err != nil {
					t.Fatalf("Run: %v", err)
				}
				loss, err := globalLoss(engine)
				if err != nil {
					t.Fatalf("globalLoss: %v", err)
				}
				return loss
			}

			want := lossWith(1)
			for _, workers := range []int{2, 8, 64} {
				got := lossWith(workers)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("evalWorkers=%d: loss %v differs bit-wise from sequential %v",
						workers, got, want)
				}
			}
		})
	}
}
