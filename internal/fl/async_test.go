package fl

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"eefei/internal/ml"
)

func TestAsyncConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*AsyncConfig)
		wantErr bool
	}{
		{"default", func(*AsyncConfig) {}, false},
		{"zero epochs", func(c *AsyncConfig) { c.LocalEpochs = 0 }, true},
		{"zero lr", func(c *AsyncConfig) { c.LearningRate = 0 }, true},
		{"decay above one", func(c *AsyncConfig) { c.Decay = 2 }, true},
		{"lr NaN", func(c *AsyncConfig) { c.LearningRate = math.NaN() }, true},
		{"lr +Inf", func(c *AsyncConfig) { c.LearningRate = math.Inf(1) }, true},
		{"decay negative", func(c *AsyncConfig) { c.Decay = -1 }, true},
		{"decay NaN", func(c *AsyncConfig) { c.Decay = math.NaN() }, true},
		{"zero mix", func(c *AsyncConfig) { c.MixWeight = 0 }, true},
		{"mix above one", func(c *AsyncConfig) { c.MixWeight = 1.5 }, true},
		{"negative staleness", func(c *AsyncConfig) { c.MaxStaleness = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultAsyncConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func asyncQuickConfig() AsyncConfig {
	return AsyncConfig{
		LocalEpochs:  5,
		LearningRate: 0.5,
		Decay:        0.995,
		MixWeight:    0.6,
		Seed:         1,
	}
}

func TestNewAsyncEngineErrors(t *testing.T) {
	if _, err := NewAsyncEngine(asyncQuickConfig(), nil, nil); !errors.Is(err, ErrAsync) {
		t.Errorf("no shards = %v, want ErrAsync", err)
	}
	cfg := asyncQuickConfig()
	cfg.LocalEpochs = 0
	shards, _ := quickShards(t, 4)
	if _, err := NewAsyncEngine(cfg, shards, nil); !errors.Is(err, ErrAsync) {
		t.Errorf("bad config = %v, want ErrAsync", err)
	}
}

func TestAsyncTrainingConverges(t *testing.T) {
	shards, test := quickShards(t, 10)
	e, err := NewAsyncEngine(asyncQuickConfig(), shards, test)
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	updates, err := e.Run(MaxAsyncSteps(60))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(updates) != 60 {
		t.Fatalf("updates = %d, want 60", len(updates))
	}
	first, last := updates[0], updates[len(updates)-1]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("async loss did not fall: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAccuracy < 0.8 {
		t.Errorf("async accuracy = %v after 60 updates", last.TestAccuracy)
	}
}

func TestAsyncStalenessDiscount(t *testing.T) {
	shards, _ := quickShards(t, 10)
	e, err := NewAsyncEngine(asyncQuickConfig(), shards, nil)
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	sawStale := false
	for i := 0; i < 40; i++ {
		upd, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !upd.Applied {
			t.Fatalf("update dropped with MaxStaleness=0: %+v", upd)
		}
		wantAlpha := 0.6 / float64(upd.Staleness+1)
		if math.Abs(upd.MixWeight-wantAlpha) > 1e-12 {
			t.Fatalf("mix weight %v for staleness %d, want %v",
				upd.MixWeight, upd.Staleness, wantAlpha)
		}
		if upd.Staleness > 0 {
			sawStale = true
		}
	}
	if !sawStale {
		t.Error("40 async steps over 10 clients should produce stale updates")
	}
}

func TestAsyncMaxStalenessDrops(t *testing.T) {
	shards, _ := quickShards(t, 10)
	cfg := asyncQuickConfig()
	cfg.MaxStaleness = 1
	e, err := NewAsyncEngine(cfg, shards, nil)
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	dropped := 0
	for i := 0; i < 60; i++ {
		upd, err := e.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !upd.Applied {
			dropped++
			if upd.Staleness <= cfg.MaxStaleness {
				t.Fatalf("dropped update with staleness %d <= max %d", upd.Staleness, cfg.MaxStaleness)
			}
			if upd.MixWeight != 0 {
				t.Fatal("dropped update must carry zero mix weight")
			}
		}
	}
	if dropped == 0 {
		t.Error("MaxStaleness=1 over 10 clients should drop some updates")
	}
	// Version only counts applied updates.
	if e.Version() != 60-dropped {
		t.Errorf("version = %d, want %d", e.Version(), 60-dropped)
	}
}

func TestAsyncDeterministic(t *testing.T) {
	run := func() float64 {
		shards, _ := quickShards(t, 8)
		e, err := NewAsyncEngine(asyncQuickConfig(), shards, nil)
		if err != nil {
			t.Fatalf("NewAsyncEngine: %v", err)
		}
		if _, err := e.Run(MaxAsyncSteps(20)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		h := e.History()
		return h[len(h)-1].TrainLoss
	}
	if run() != run() {
		t.Error("same-seed async runs must be identical")
	}
}

// TestAsyncPoolBitIdentical is the async engine's pool-independence pin,
// mirroring TestRoundParallelBitIdentical: under one seed, worker counts
// {1, 2, 4, GOMAXPROCS} must yield byte-identical global weights and
// identical applied-version/staleness histories. The virtual-time event
// queue — not goroutine completion order — decides which update lands next,
// so the pool size can only change wall-clock, never the stream. MaxStaleness
// is set low enough that the matrix covers the drop path too.
func TestAsyncPoolBitIdentical(t *testing.T) {
	shards, test := quickShards(t, 10)
	cfg := asyncQuickConfig()
	cfg.MaxStaleness = 4
	run := func(workers int) ([]AsyncUpdate, *ml.Model) {
		e, err := NewAsyncEngine(cfg, shards, test,
			WithAsyncParallelism(workers), WithAsyncEvalParallelism(workers))
		if err != nil {
			t.Fatalf("NewAsyncEngine(workers=%d): %v", workers, err)
		}
		if _, err := e.Run(MaxAsyncSteps(30)); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		return e.History(), e.Global()
	}
	refHist, refModel := run(1)
	drops := 0
	for _, u := range refHist {
		if !u.Applied {
			drops++
		}
	}
	if drops == 0 {
		t.Error("identity matrix should cover the staleness-drop path; none dropped")
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		hist, model := run(workers)
		if !reflect.DeepEqual(histNoNaN(refHist), histNoNaN(hist)) {
			t.Errorf("workers=%d: history diverged from sequential run", workers)
		}
		rw, mw := refModel.W.RawData(), model.W.RawData()
		for i := range rw {
			if math.Float64bits(rw[i]) != math.Float64bits(mw[i]) {
				t.Errorf("workers=%d: weight %d not bit-identical: %x vs %x",
					workers, i, math.Float64bits(rw[i]), math.Float64bits(mw[i]))
				break
			}
		}
		for i := range refModel.B {
			if math.Float64bits(refModel.B[i]) != math.Float64bits(model.B[i]) {
				t.Errorf("workers=%d: bias %d not bit-identical", workers, i)
				break
			}
		}
	}
}

// TestAsyncStepAllocationFree pins the steady-state hot path: once the fleet
// is dispatched and every scratch buffer is warm, a sequential Step with a
// nil observer performs zero heap allocations — local training reuses the
// per-client snapshot and the worker's Reset SGD, the event heap pops and
// pushes within capacity, the mix and both evaluations run in warm scratch.
func TestAsyncStepAllocationFree(t *testing.T) {
	shards, test := quickShards(t, 8)
	e, err := NewAsyncEngine(asyncQuickConfig(), shards, test,
		WithAsyncParallelism(1), WithAsyncEvalParallelism(1))
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatalf("warm-up Step: %v", err)
		}
	}
	const runs = 20
	// Pre-grow the history so append's amortized doubling — a bookkeeping
	// cost every engine in the repo accepts — stays out of the hot-path pin
	// (AllocsPerRun adds one warm-up call on top of runs).
	h := make([]AsyncUpdate, len(e.history), len(e.history)+runs+8)
	copy(h, e.history)
	e.history = h
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Step allocates %v per run, want 0", allocs)
	}
}

// FuzzAsyncConfig drives arbitrary configurations through validation and a
// short run: invalid configs must wrap ErrAsync from both Validate and
// NewAsyncEngine, valid ones must survive six steps without panicking or
// producing non-finite weights, and every applied update must carry the
// exact staleness discount α/(s+1).
func FuzzAsyncConfig(f *testing.F) {
	shards, _ := quickShards(f, 4)
	// Seed corpus: the quick config, plain FedAsync corners (no decay, full
	// mix, tight staleness bound), and representative invalid configs.
	f.Add(5, 0.5, 0.995, 0.6, 0, uint64(1))
	f.Add(1, 0.01, 0.0, 1.0, 3, uint64(42))
	f.Add(2, 1.0, 1.0, 0.25, 1, uint64(7))
	f.Add(0, -1.0, 2.0, 0.0, -1, uint64(0))
	f.Add(5, math.Inf(1), 0.5, 0.5, 0, uint64(3))
	f.Fuzz(func(t *testing.T, epochs int, lr, decay, mix float64, maxStale int, seed uint64) {
		cfg := AsyncConfig{
			LocalEpochs:  epochs,
			LearningRate: lr,
			Decay:        decay,
			MixWeight:    mix,
			MaxStaleness: maxStale,
			Seed:         seed,
		}
		verr := cfg.Validate()
		e, nerr := NewAsyncEngine(cfg, shards, nil)
		if verr != nil {
			if !errors.Is(verr, ErrAsync) {
				t.Fatalf("invalid config error %v does not wrap ErrAsync", verr)
			}
			if !errors.Is(nerr, ErrAsync) {
				t.Fatalf("NewAsyncEngine accepted a config Validate rejects: %v", nerr)
			}
			return
		}
		if nerr != nil {
			t.Fatalf("NewAsyncEngine rejected a valid config: %v", nerr)
		}
		// Bound the run's cost (huge epoch counts) and keep the optimizer in
		// its numerically sane regime (softmax logits overflow by design at
		// extreme step sizes) without weakening the validation check above.
		if cfg.LocalEpochs > 6 || cfg.LearningRate > 2 {
			if cfg.LocalEpochs > 6 {
				cfg.LocalEpochs = 6
			}
			if cfg.LearningRate > 2 {
				cfg.LearningRate = 2
			}
			var err error
			e, err = NewAsyncEngine(cfg, shards, nil)
			if err != nil {
				t.Fatalf("clamped config rejected: %v", err)
			}
		}
		applied := 0
		for i := 0; i < 6; i++ {
			upd, err := e.Step()
			if err != nil {
				t.Fatalf("Step %d: %v", i, err)
			}
			if upd.Applied {
				applied++
				want := cfg.MixWeight / float64(upd.Staleness+1)
				if upd.MixWeight != want {
					t.Fatalf("step %d: mix %v for staleness %d, want %v",
						i, upd.MixWeight, upd.Staleness, want)
				}
				if math.IsNaN(upd.TrainLoss) || math.IsInf(upd.TrainLoss, 0) {
					t.Fatalf("step %d: non-finite loss %v", i, upd.TrainLoss)
				}
			} else if cfg.MaxStaleness == 0 {
				t.Fatalf("step %d dropped with MaxStaleness=0", i)
			}
		}
		if e.Version() != applied {
			t.Fatalf("version %d != applied count %d", e.Version(), applied)
		}
		for _, w := range e.Global().W.RawData() {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("non-finite weight %v", w)
			}
		}
		for _, b := range e.Global().B {
			if math.IsNaN(b) || math.IsInf(b, 0) {
				t.Fatalf("non-finite bias %v", b)
			}
		}
	})
}

func TestAsyncRunNilStop(t *testing.T) {
	shards, _ := quickShards(t, 4)
	e, err := NewAsyncEngine(asyncQuickConfig(), shards, nil)
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	if _, err := e.Run(nil); !errors.Is(err, ErrAsync) {
		t.Errorf("nil stop = %v, want ErrAsync", err)
	}
}

func TestAsyncTargetAccuracyStop(t *testing.T) {
	shards, test := quickShards(t, 10)
	e, err := NewAsyncEngine(asyncQuickConfig(), shards, test)
	if err != nil {
		t.Fatalf("NewAsyncEngine: %v", err)
	}
	updates, err := e.Run(func(h []AsyncUpdate) bool {
		return AsyncTargetAccuracy(0.8)(h) || MaxAsyncSteps(150)(h)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	last := updates[len(updates)-1]
	if last.TestAccuracy < 0.8 && len(updates) < 150 {
		t.Errorf("stopped early at accuracy %v", last.TestAccuracy)
	}
}
