package fl

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// quickShards builds a small federated setup: 2000 synthetic samples split
// IID across 10 servers, plus a test set.
func quickShards(t testing.TB, servers int) ([]*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := dataset.SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return shards, test
}

func quickConfig() Config {
	return Config{
		ClientsPerRound: 5,
		LocalEpochs:     5,
		LearningRate:    0.5,
		Decay:           0.99,
		Activation:      ml.Softmax,
		Seed:            1,
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default ok", func(*Config) {}, false},
		{"K zero", func(c *Config) { c.ClientsPerRound = 0 }, true},
		{"K above shards", func(c *Config) { c.ClientsPerRound = 11 }, true},
		{"E zero", func(c *Config) { c.LocalEpochs = 0 }, true},
		{"lr zero", func(c *Config) { c.LearningRate = 0 }, true},
		{"decay above one", func(c *Config) { c.Decay = 1.5 }, true},
		{"lr NaN", func(c *Config) { c.LearningRate = math.NaN() }, true},
		{"lr +Inf", func(c *Config) { c.LearningRate = math.Inf(1) }, true},
		{"lr -Inf", func(c *Config) { c.LearningRate = math.Inf(-1) }, true},
		{"lr negative", func(c *Config) { c.LearningRate = -0.01 }, true},
		{"decay negative", func(c *Config) { c.Decay = -1 }, true},
		{"decay NaN", func(c *Config) { c.Decay = math.NaN() }, true},
		{"decay zero (off)", func(c *Config) { c.Decay = 0 }, false},
		{"negative batch", func(c *Config) { c.BatchSize = -2 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := quickConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(10); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewEngineErrors(t *testing.T) {
	shards, _ := quickShards(t, 10)
	if _, err := NewEngine(quickConfig(), nil); !errors.Is(err, ErrConfig) {
		t.Errorf("no shards = %v, want ErrConfig", err)
	}
	// Mismatched shard shapes.
	bad := append([]*dataset.Dataset{}, shards...)
	other := &dataset.Dataset{X: mat.NewDense(5, 3), Labels: []int{0, 1, 0, 1, 0}, Classes: 2}
	bad[3] = other
	if _, err := NewEngine(quickConfig(), bad); !errors.Is(err, ErrConfig) {
		t.Errorf("mismatched shards = %v, want ErrConfig", err)
	}
}

func TestRoundBasics(t *testing.T) {
	shards, test := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards, WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rec, err := e.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	if rec.Round != 0 {
		t.Errorf("first round index = %d, want 0", rec.Round)
	}
	if len(rec.Selected) != 5 {
		t.Errorf("selected %d clients, want 5", len(rec.Selected))
	}
	if len(rec.LocalLosses) != 5 {
		t.Errorf("local losses = %d entries, want 5", len(rec.LocalLosses))
	}
	if math.IsNaN(rec.TestAccuracy) {
		t.Error("with a test set attached, accuracy must be reported")
	}
	if rec.LearningRate != 0.5 {
		t.Errorf("round-0 lr = %v, want 0.5", rec.LearningRate)
	}
	if e.Rounds() != 1 || len(e.History()) != 1 {
		t.Error("history bookkeeping wrong")
	}
}

func TestSelectionWithoutReplacement(t *testing.T) {
	shards, _ := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for r := 0; r < 5; r++ {
		rec, err := e.Round()
		if err != nil {
			t.Fatalf("Round: %v", err)
		}
		seen := make(map[int]bool)
		for _, c := range rec.Selected {
			if c < 0 || c >= 10 || seen[c] {
				t.Fatalf("round %d invalid selection %v", r, rec.Selected)
			}
			seen[c] = true
		}
	}
}

func TestLossDecreasesOverRounds(t *testing.T) {
	shards, test := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards, WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	recs, err := e.Run(MaxRounds(15))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	first, last := recs[0], recs[len(recs)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("loss did not fall: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAccuracy <= first.TestAccuracy-0.01 {
		t.Errorf("accuracy regressed: %v -> %v", first.TestAccuracy, last.TestAccuracy)
	}
}

func TestFedAvgReachesGoodAccuracy(t *testing.T) {
	// The Fig.-4 substrate: federated training must reach solid test
	// accuracy on the synthetic digits.
	shards, test := quickShards(t, 10)
	cfg := quickConfig()
	cfg.LocalEpochs = 10
	e, err := NewEngine(cfg, shards, WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Run(AnyOf(TargetAccuracy(0.88), MaxRounds(60))); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := e.History()
	if final := h[len(h)-1].TestAccuracy; final < 0.85 {
		t.Errorf("final accuracy = %.3f after %d rounds, want >= 0.85", final, len(h))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []RoundRecord {
		shards, test := quickShards(t, 10)
		e, err := NewEngine(quickConfig(), shards, WithTestSet(test))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		recs, err := e.Run(MaxRounds(5))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return recs
	}
	a, b := run(), run()
	for i := range a {
		if a[i].TrainLoss != b[i].TrainLoss || a[i].TestAccuracy != b[i].TestAccuracy {
			t.Fatalf("round %d diverged between identical runs", i)
		}
		for j := range a[i].Selected {
			if a[i].Selected[j] != b[i].Selected[j] {
				t.Fatalf("round %d selection diverged", i)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	shards, _ := quickShards(t, 10)
	runWith := func(parallel int) float64 {
		e, err := NewEngine(quickConfig(), shards, WithParallelism(parallel))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		recs, err := e.Run(MaxRounds(3))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return recs[len(recs)-1].TrainLoss
	}
	if seq, par := runWith(1), runWith(8); seq != par {
		t.Errorf("parallel training diverged: seq %v vs par %v", seq, par)
	}
}

// TestRoundParallelBitIdentical is the engine-level equivalence pin: a fully
// sequential engine (one training worker, one eval worker) and a heavily
// pooled one must produce bit-identical histories — losses, accuracies, and
// per-client local losses — under the same seed. Mini-batch mode makes the
// check cover shuffle-stream placement too.
func TestRoundParallelBitIdentical(t *testing.T) {
	shards, test := quickShards(t, 10)
	for _, batch := range []int{0, 16} {
		run := func(train, eval int) []RoundRecord {
			cfg := quickConfig()
			cfg.BatchSize = batch
			e, err := NewEngine(cfg, shards, WithTestSet(test),
				WithParallelism(train), WithEvalParallelism(eval))
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			recs, err := e.Run(MaxRounds(4))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			return recs
		}
		seq, par := run(1, 1), run(8, 8)
		for i := range seq {
			if seq[i].TrainLoss != par[i].TrainLoss {
				t.Errorf("batch=%d round %d: TrainLoss seq %v != par %v", batch, i, seq[i].TrainLoss, par[i].TrainLoss)
			}
			if seq[i].TestAccuracy != par[i].TestAccuracy {
				t.Errorf("batch=%d round %d: TestAccuracy seq %v != par %v", batch, i, seq[i].TestAccuracy, par[i].TestAccuracy)
			}
			for j := range seq[i].LocalLosses {
				if seq[i].LocalLosses[j] != par[i].LocalLosses[j] {
					t.Errorf("batch=%d round %d client slot %d: local loss diverged", batch, i, j)
				}
			}
		}
	}
}

// TestGlobalLossParallelBitIdentical pins the shard map-reduce: the same
// trained model must evaluate to the exact same float for every eval worker
// count.
func TestGlobalLossParallelBitIdentical(t *testing.T) {
	shards, _ := quickShards(t, 10)
	lossWith := func(eval int) float64 {
		e, err := NewEngine(quickConfig(), shards, WithEvalParallelism(eval))
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := e.Run(MaxRounds(2)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		l, err := e.GlobalLoss()
		if err != nil {
			t.Fatalf("GlobalLoss: %v", err)
		}
		return l
	}
	want := lossWith(1)
	for _, eval := range []int{2, 3, 16} {
		if got := lossWith(eval); got != want {
			t.Errorf("GlobalLoss(eval=%d) = %v, want bit-identical %v", eval, got, want)
		}
	}
}

// corruptingAggregator scribbles into dst and then fails — the worst-case
// aggregator for commit atomicity.
type corruptingAggregator struct{}

func (corruptingAggregator) Aggregate(dst *ml.Model, _ []Update) error {
	dst.W.Fill(999)
	return errors.New("aggregator exploded")
}

// TestRoundCommitsAtomically: a failed round must leave the engine exactly
// as it was — model parameters, round counter, and history — even when the
// failing stage has already scribbled into the aggregation target.
func TestRoundCommitsAtomically(t *testing.T) {
	shards, test := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards, WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Run(MaxRounds(2)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	before := e.Global().Clone()

	e.agg = corruptingAggregator{}
	if _, err := e.Round(); err == nil {
		t.Fatal("Round with failing aggregator must error")
	}
	if d := e.Global().ParamDistance(before); d != 0 {
		t.Errorf("failed round moved the global model by %v, want 0", d)
	}
	if e.Rounds() != 2 || len(e.History()) != 2 {
		t.Errorf("failed round advanced bookkeeping: rounds=%d history=%d, want 2/2", e.Rounds(), len(e.History()))
	}

	// The engine must still be able to complete rounds afterwards.
	e.agg = MeanAggregator{}
	rec, err := e.Round()
	if err != nil {
		t.Fatalf("Round after recovery: %v", err)
	}
	if rec.Round != 2 || e.Rounds() != 3 {
		t.Errorf("recovered round index = %d (rounds=%d), want 2 (3)", rec.Round, e.Rounds())
	}
}

func TestLearningRateDecaysPerRound(t *testing.T) {
	shards, _ := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	recs, err := e.Run(MaxRounds(3))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, rec := range recs {
		want := 0.5 * math.Pow(0.99, float64(i))
		if math.Abs(rec.LearningRate-want) > 1e-15 {
			t.Errorf("round %d lr = %v, want %v", i, rec.LearningRate, want)
		}
	}
}

func TestRoundRobinSelector(t *testing.T) {
	shards, _ := quickShards(t, 10)
	cfg := quickConfig()
	cfg.ClientsPerRound = 3
	e, err := NewEngine(cfg, shards, WithSelector(RoundRobinSelector{}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r0, err := e.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	r1, err := e.Round()
	if err != nil {
		t.Fatalf("Round: %v", err)
	}
	want0, want1 := []int{0, 1, 2}, []int{3, 4, 5}
	for i := range want0 {
		if r0.Selected[i] != want0[i] || r1.Selected[i] != want1[i] {
			t.Fatalf("round-robin selections %v, %v; want %v, %v",
				r0.Selected, r1.Selected, want0, want1)
		}
	}
}

func TestStopConditions(t *testing.T) {
	h := []RoundRecord{{TrainLoss: 0.5, TestAccuracy: 0.8}}
	if !MaxRounds(1)(h) || MaxRounds(2)(h) {
		t.Error("MaxRounds wrong")
	}
	if !TargetAccuracy(0.8)(h) || TargetAccuracy(0.81)(h) {
		t.Error("TargetAccuracy wrong")
	}
	if !TargetLoss(0.5)(h) || TargetLoss(0.4)(h) {
		t.Error("TargetLoss wrong")
	}
	if !AnyOf(MaxRounds(5), TargetLoss(0.5))(h) {
		t.Error("AnyOf must fire when either condition holds")
	}
	if AnyOf()(h) {
		t.Error("empty AnyOf must not fire")
	}
	if TargetAccuracy(0.5)(nil) || TargetLoss(1)(nil) {
		t.Error("empty history must not satisfy target conditions")
	}
}

func TestRunNilStop(t *testing.T) {
	shards, _ := quickShards(t, 10)
	e, err := NewEngine(quickConfig(), shards)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Run(nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil stop = %v, want ErrConfig", err)
	}
}

func TestMoreLocalEpochsFasterPerRoundProgress(t *testing.T) {
	// The paper's Fig. 4c/4d premise: larger E ⇒ fewer rounds to a given
	// loss. Compare loss after 5 rounds with E=1 vs E=10.
	lossAfter := func(localEpochs int) float64 {
		shards, _ := quickShards(t, 10)
		cfg := quickConfig()
		cfg.LocalEpochs = localEpochs
		e, err := NewEngine(cfg, shards)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		recs, err := e.Run(MaxRounds(5))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return recs[len(recs)-1].TrainLoss
	}
	small, large := lossAfter(1), lossAfter(10)
	if large >= small {
		t.Errorf("E=10 loss %v not better than E=1 loss %v after equal rounds", large, small)
	}
}

// TestWarmRoundAllocations pins what a warm sequential round costs the heap:
// the selector's draw, the record's copy of the local losses and the history
// growing — a handful of small objects, none per sample or per parameter —
// and that the global-loss pass on its own costs nothing. Sequential pools
// make the count exact; the multi-core figure, goroutine spawns included, is
// bench/'s fl.allocs_per_round.
func TestWarmRoundAllocations(t *testing.T) {
	shards, test := quickShards(t, 20)
	for _, tc := range []struct {
		name string
		cfg  Config
		test *dataset.Dataset
	}{
		{"full-batch", Config{ClientsPerRound: 10, LocalEpochs: 4, LearningRate: 0.01, Decay: 0.99, Seed: 1}, test},
		{"mini-batch", Config{ClientsPerRound: 10, LocalEpochs: 2, LearningRate: 0.05, BatchSize: 32, Seed: 1}, nil},
	} {
		e, err := NewEngine(tc.cfg, shards, WithTestSet(tc.test), WithParallelism(1), WithEvalParallelism(1))
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", tc.name, err)
		}
		if _, err := e.Round(); err != nil {
			t.Fatalf("%s: warm-up Round: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Round(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("%s: a warm round allocates %v objects, want ≤ 5", tc.name, allocs)
		}
		t.Logf("%s: a warm round allocates %v objects", tc.name, allocs)

		allocs = testing.AllocsPerRun(20, func() {
			if _, err := e.GlobalLoss(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: GlobalLoss allocates %v objects, want 0", tc.name, allocs)
		}
	}
}
