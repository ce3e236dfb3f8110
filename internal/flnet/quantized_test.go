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

func TestQuantizedRequestRoundTrip(t *testing.T) {
	m := ml.NewModel(3, 4, ml.Softmax)
	req := TrainRequest{Round: 1, Epochs: 2, LearningRate: 0.1, ReplyBits: ml.Quant8, BaseRound: 1}
	payload := m.AppendBinary(appendTrainRequestHeader(nil, req))
	back, _, err := decodeTrainRequest(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.ReplyBits != ml.Quant8 {
		t.Errorf("ReplyBits = %d, want 8", back.ReplyBits)
	}
}

func TestQuantizedReplyShrinksWire(t *testing.T) {
	m := ml.NewModel(10, 64, ml.Softmax)
	m.W.Fill(0.5)
	full := TrainReply{Round: 0, Loss: 1, Samples: 10, Bits: 0, Model: m}
	q8 := TrainReply{Round: 0, Loss: 1, Samples: 10, Bits: ml.Quant8, Model: m}

	fullPayload, err := appendTrainReply(nil, full)
	if err != nil {
		t.Fatalf("encode full: %v", err)
	}
	q8Payload, err := appendTrainReply(nil, q8)
	if err != nil {
		t.Fatalf("encode q8: %v", err)
	}
	if len(q8Payload)*6 > len(fullPayload) {
		t.Errorf("8-bit payload %d bytes vs full %d — expected ~8x shrink",
			len(q8Payload), len(fullPayload))
	}
	back, err := decodeTrainReplyInto(q8Payload, &ml.Model{}, nil, nil)
	if err != nil {
		t.Fatalf("decode q8: %v", err)
	}
	if back.Bits != ml.Quant8 || back.WireBytes != len(q8Payload)-20 {
		t.Errorf("metadata lost: bits=%d wire=%d", back.Bits, back.WireBytes)
	}
	// Reconstruction error bounded.
	bound := ml.MaxQuantError(m, ml.Quant8) * 1.01
	if d := back.Model.ParamDistance(m); d > bound*float64(m.ParamCount()) {
		t.Errorf("reconstruction distance %v too large", d)
	}
}

func TestInvalidQuantBitsRejected(t *testing.T) {
	m := ml.NewModel(2, 2, ml.Softmax)
	if _, err := appendTrainReply(nil, TrainReply{Bits: 12, Model: m}); err == nil {
		t.Error("bad reply bits must be rejected at encode")
	}
	// Encode does not validate; decode does.
	payload := m.AppendBinary(appendTrainRequestHeader(nil, TrainRequest{ReplyBits: 12}))
	if _, _, err := decodeTrainRequest(payload); err == nil {
		t.Error("bad request bits must be rejected at decode")
	}
}

// TestQuantizedNetworkedTraining runs a full networked cluster with 8-bit
// uploads and verifies training still converges.
func TestQuantizedNetworkedTraining(t *testing.T) {
	const servers = 4
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 400
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: servers, LocalEpochs: 3, LearningRate: 0.3, Decay: 0.99, Seed: 1,
		},
		Classes:         train.Classes,
		Features:        train.Dim(),
		RoundTimeout:    30 * time.Second,
		JoinTimeout:     10 * time.Second,
		UploadQuantBits: ml.Quant8,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()

	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			})
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, servers); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	history, err := coord.Run(ctx, fl.MaxRounds(6))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()
	last := history[len(history)-1]
	if last.TrainLoss >= history[0].TrainLoss {
		t.Errorf("quantized training loss did not fall: %v -> %v",
			history[0].TrainLoss, last.TrainLoss)
	}
	if last.TestAccuracy < 0.5 {
		t.Errorf("quantized training accuracy = %v after 6 rounds", last.TestAccuracy)
	}
}

func TestCoordinatorRejectsBadQuantBits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	_, err = NewCoordinator(CoordinatorConfig{
		FL:              fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: 0.1},
		Classes:         2,
		Features:        2,
		UploadQuantBits: 12,
	}, ln, nil)
	if err == nil {
		t.Error("bits=12 must be rejected")
	}
}
