package flnet

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
)

// BenchmarkDgramRoundWire is BenchmarkRoundWire's datagram twin: one full
// networked FedAvg round with the K=10 fan-out over loopback UDP through the
// fldgram windowed ARQ — fragmentation, cumulative ACKs, reassembly.
// The loss=0 case prices the ARQ machinery itself against the TCP baseline;
// loss=10% adds the seeded injector so the geometric retransmission cost of
// the paper's Eq. 4 shows up as wall-clock (injected drops skip the RTO wait,
// so the overhead measured is the retransmitted bytes, not timer sleeps).
func BenchmarkDgramRoundWire(b *testing.B) {
	for _, bc := range []struct {
		name        string
		successProb float64
	}{
		{"loss=0", 1},
		{"loss=10%", 0.9},
	} {
		b.Run(bc.name, func(b *testing.B) {
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
			coord, cleanup := benchDgramCluster(b, shards, test, bc.successProb, CoordinatorConfig{
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
			warmRounds(b, coord)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Round(ctx); err != nil {
					b.Fatalf("round %d: %v", i, err)
				}
			}
		})
	}
}

// benchDgramCluster mirrors benchCluster over the datagram transport: a
// fldgram UDP listener plus one fldgram-dialing edge per shard, with the
// given per-attempt delivery probability on both directions.
func benchDgramCluster(b testing.TB, shards []*dataset.Dataset, test *dataset.Dataset, successProb float64, cfg CoordinatorConfig) (*Coordinator, func()) {
	b.Helper()
	ln, err := fldgram.Listen("127.0.0.1:0", fldgram.Config{Seed: 1, SuccessProb: successProb})
	if err != nil {
		b.Fatalf("fldgram.Listen: %v", err)
	}
	coord, err := NewCoordinator(cfg, ln, test)
	if err != nil {
		b.Fatalf("NewCoordinator: %v", err)
	}
	var wg sync.WaitGroup
	for i := range shards {
		dial, err := fldgram.Dialer(fldgram.Config{Seed: uint64(i + 2), SuccessProb: successProb})
		if err != nil {
			b.Fatalf("fldgram.Dialer: %v", err)
		}
		wg.Add(1)
		go func(i int, dial func(string, time.Duration) (net.Conn, error)) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
				Dial:  dial,
			})
		}(i, dial)
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
