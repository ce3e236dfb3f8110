//go:build !race

package flnet

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

// Every pin in this file leans on sync.Pool keeping its buffers, which it
// does not under the race detector; hence the build tag on the file.

// TestWarmRoundAllocations pins what a warm networked round allocates, both
// ends counted: the round itself, one goroutine per exchange, the selection
// draw and the record's two slices, and nothing per parameter — frames are
// pooled, requests are encoded once and shared, replies decode in place, the
// per-connection link state advances by pointer, and the round's target,
// frame and update lists are scratch the coordinator keeps. Over loopback TCP
// a K = 8 round measures 20; the pin leaves one for the history slice
// growing. Through the fldgram link a K = 10 round measures 27 with and
// without injected loss: nothing per packet.
func TestWarmRoundAllocations(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fleet       int
		successProb float64 // 0: loopback TCP
		max         float64
	}{
		{"tcp", 8, 0, 21},
		{"dgram/loss=0", 10, 1, 28},
		{"dgram/loss=10%", 10, 0.9, 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dcfg := dataset.QuickSyntheticConfig()
			dcfg.Samples = 20 * tc.fleet
			train, test, err := dataset.SynthesizePair(dcfg, dcfg)
			if err != nil {
				t.Fatalf("SynthesizePair: %v", err)
			}
			shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, tc.fleet)
			if err != nil {
				t.Fatalf("Partition: %v", err)
			}
			cfg := CoordinatorConfig{
				FL:           fl.Config{ClientsPerRound: tc.fleet, LocalEpochs: 1, LearningRate: 0.1, Seed: 1},
				Classes:      train.Classes,
				Features:     train.Dim(),
				RoundTimeout: 30 * time.Second,
				JoinTimeout:  10 * time.Second,
			}
			var coord *Coordinator
			var cleanup func()
			if tc.successProb == 0 {
				coord, cleanup = benchCluster(t, shards, test, cfg)
			} else {
				coord, cleanup = benchDgramCluster(t, shards, test, tc.successProb, cfg)
			}
			defer cleanup()
			ctx := context.Background()
			round := func() {
				if _, err := coord.Round(ctx); err != nil {
					t.Fatalf("round: %v", err)
				}
			}
			// Three rounds bring every connection to second-order bodies and
			// the snapshot free list to its steady size.
			for i := 0; i < 3; i++ {
				round()
			}
			avg := testing.AllocsPerRun(50, round)
			if avg > tc.max {
				t.Errorf("a warm K=%d round allocates %.1f objects, want ≤ %.0f", tc.fleet, avg, tc.max)
			}
			t.Logf("a warm K=%d round allocates %.1f objects", tc.fleet, avg)
		})
	}
}

// TestWriteFrameAllocationFree pins the pooled frame path: steady-state
// writeFrame (header + payload coalesced in a pooled buffer) and
// readFrameInto with warm scratch must not touch the heap.
func TestWriteFrameAllocationFree(t *testing.T) {
	payload := make([]byte, 8192)
	// Warm the pool so the measured runs reuse a buffer.
	if err := writeFrame(io.Discard, MsgTrainRequest, payload); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := writeFrame(io.Discard, MsgTrainRequest, payload); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.1 {
		t.Errorf("writeFrame allocates %.1f objects per frame, want 0", avg)
	}

	var wire bytes.Buffer
	if err := writeFrame(&wire, MsgTrainRequest, payload); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), wire.Bytes()...)
	scratch := make([]byte, 0, len(frame))
	r := bytes.NewReader(frame)
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		if _, _, err := readFrameInto(r, &scratch, len(payload)); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.1 {
		t.Errorf("readFrameInto allocates %.1f objects per frame, want 0", avg)
	}
}

// TestBuildFrameAllocationFree pins the two downlink encodes of a warm round
// at zero: the shared lossless request (second-order delta into a pooled
// frame) and the per-client quantized residual (subtract, quantize,
// dequantize for error feedback, stage the client's next state).
func TestBuildFrameAllocationFree(t *testing.T) {
	r, tg, base, prev := downlinkFixture()
	for _, tc := range []struct {
		name  string
		build func() (*[]byte, []byte, error)
	}{
		{"buildFrame", func() (*[]byte, []byte, error) { return r.buildFrame(2, base, base, prev) }},
		{"buildResidualFrame", func() (*[]byte, []byte, error) {
			defer r.unstage(tg)
			return r.buildResidualFrame(tg, ml.Quant8)
		}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			bp, frame, err := tc.build()
			if err != nil || len(frame) == 0 {
				t.Fatalf("%s: %d-byte frame, %v", tc.name, len(frame), err)
			}
			freeFrame(bp)
		})
		if allocs != 0 {
			t.Errorf("a warm %s allocates %v objects, want 0", tc.name, allocs)
		}
		t.Logf("a warm %s allocates %v objects", tc.name, allocs)
	}
}
