package flnet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// BenchmarkRoundWire measures one full networked FedAvg round over loopback
// TCP with the paper's K=10 fan-out: request encode + K conn writes, K local
// trainings, K reply reads + decodes, aggregation, evaluation. One local
// epoch over tiny shards keeps SGD cheap so the wire path (frame buffers,
// model encode/decode, syscalls) dominates. TestWarmRoundAllocations pins the
// pooled zero-copy protocol's allocations; bench/'s wire_tcp measures such
// rounds to ε.
func BenchmarkRoundWire(b *testing.B) {
	const servers, k = 10, 10
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 200
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		b.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		b.Fatalf("Partition: %v", err)
	}
	coord, cleanup := benchCluster(b, shards, test, CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: k,
			LocalEpochs:     1,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
	})
	defer cleanup()

	ctx := context.Background()
	// Warm rounds: edge-side training state, coordinator scratch, the frame
	// pools and — by the third round — every connection's link state
	// (second-order bodies both ways, the snapshot free list at its steady
	// size) all reach steady state before the timer starts.
	warmRounds(b, coord)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coord.Round(ctx); err != nil {
			b.Fatalf("round %d: %v", i, err)
		}
	}
}

// warmRounds is what the round benchmarks run before their timers start.
func warmRounds(b *testing.B, coord *Coordinator) {
	b.Helper()
	for i := 0; i < 3; i++ {
		if _, err := coord.Round(context.Background()); err != nil {
			b.Fatalf("warm round %d: %v", i, err)
		}
	}
}

// benchCluster starts a coordinator plus one edge server per shard over
// loopback TCP, waits for full registration, and returns a cleanup that
// shuts the fleet down.
func benchCluster(b testing.TB, shards []*dataset.Dataset, test *dataset.Dataset, cfg CoordinatorConfig) (*Coordinator, func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(cfg, ln, test)
	if err != nil {
		b.Fatalf("NewCoordinator: %v", err)
	}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, len(shards)); err != nil {
		b.Fatalf("WaitForClients: %v", err)
	}
	return coord, func() {
		coord.Shutdown()
		wg.Wait()
	}
}

// downlinkFixture is round 3 of a 10×64 model for the two downlink encodes:
// the global, the two rounds before it at a small drift (as between
// consecutive rounds), and a target whose base is the previous round.
func downlinkFixture() (r *round, tg *target, base, prev *ml.Model) {
	global := ml.NewModel(10, 64, ml.Softmax)
	global.W.Fill(0.25)
	base, prev = global.Clone(), global.Clone()
	base.W.Fill(0.249)
	prev.W.Fill(0.2481)
	c := &Coordinator{cfg: CoordinatorConfig{Classes: 10, Features: 64}, global: &snapshot{round: 3, m: global, refs: 1}}
	r = &round{c: c, t: 3, global: c.global, req: TrainRequest{Round: 3, Epochs: 5, LearningRate: 0.1}}
	return r, &target{base: &snapshot{round: 2, m: base, refs: 1}}, base, prev
}

// BenchmarkEncodeTrainRequest isolates the downlink encode of a warm round:
// one sealed request frame carrying the 10×64 global model as a second-order
// delta against the two rounds before it, built in a pooled buffer — what
// every connection of a K = N fleet shares.
func BenchmarkEncodeTrainRequest(b *testing.B) {
	r, _, base, prev := downlinkFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp, frame, err := r.buildFrame(2, base, base, prev)
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
		freeFrame(bp)
	}
}

// BenchmarkEncodeResidual is the coordinator-side residual downlink build:
// subtract the client's last reconstruction from the global, quantize the
// residual into a pooled frame, dequantize it back for error feedback, and
// stage the client's next state — everything buildResidualFrame does per
// selected client per round, against the lossless encode above.
func BenchmarkEncodeResidual(b *testing.B) {
	r, tg, _, _ := downlinkFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp, frame, err := r.buildResidualFrame(tg, ml.Quant8)
		if err != nil {
			b.Fatal(err)
		}
		if len(frame) == 0 {
			b.Fatal("empty frame")
		}
		freeFrame(bp)
		r.unstage(tg)
	}
}
