package flnet

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// --- protocol unit tests -----------------------------------------------------

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgJoin, []byte{1, 2, 3}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	typ, payload, err := readFrame(&buf, handshakeLimit)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != MsgJoin || len(payload) != 3 || payload[2] != 3 {
		t.Errorf("round trip lost data: %v %v", typ, payload)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgShutdown, nil); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	typ, payload, err := readFrame(&buf, handshakeLimit)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if typ != MsgShutdown || len(payload) != 0 {
		t.Errorf("empty frame mangled: %v %v", typ, payload)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&buf, handshakeLimit); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized frame = %v, want ErrProtocol", err)
	}
}

// TestReadFrameBoundedByCallerLimit pins that the bound is the caller's, not
// a global constant: a payload of exactly limit bytes is read, one byte more
// is refused from its length prefix alone — before the scratch buffer grows.
func TestReadFrameBoundedByCallerLimit(t *testing.T) {
	const limit = 100
	var wire bytes.Buffer
	if err := writeFrame(&wire, MsgTrainReply, make([]byte, limit)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	scratch := make([]byte, 0, 8)
	if _, payload, err := readFrameInto(&wire, &scratch, limit); err != nil || len(payload) != limit {
		t.Fatalf("payload at the limit = (%d bytes, %v), want accepted", len(payload), err)
	}

	if err := writeFrame(&wire, MsgTrainReply, make([]byte, limit+1)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	scratch = make([]byte, 0, 8)
	if _, _, err := readFrameInto(&wire, &scratch, limit); !errors.Is(err, ErrProtocol) {
		t.Errorf("payload one over the limit = %v, want ErrProtocol", err)
	}
	if cap(scratch) != 8 {
		t.Errorf("refused frame grew scratch to %d bytes, want it left at 8", cap(scratch))
	}
}

// TestFrameLimitsFollowTheModel checks both ends size their round reads
// from the model they train, whichever codec the body travels in.
func TestFrameLimitsFollowTheModel(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {10, 64}} {
		m := ml.NewModel(shape[0], shape[1], ml.Softmax)
		limit := modelBodyLimit(m)
		for _, bits := range []ml.QuantBits{ml.Quant8, ml.Quant16} {
			if q := ml.QuantizedSize(shape[0], shape[1], bits); q > limit {
				t.Errorf("%dx%d: %d-bit body of %d bytes exceeds limit %d", shape[0], shape[1], bits, q, limit)
			}
		}
		if m.EncodedSize() > limit {
			t.Errorf("%dx%d: full body of %d bytes exceeds limit %d", shape[0], shape[1], m.EncodedSize(), limit)
		}
		if limit > m.EncodedSize()+64 {
			t.Errorf("%dx%d: limit %d is not tied to the %d-byte model", shape[0], shape[1], limit, m.EncodedSize())
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, byte(MsgJoin)}) // promises 10, delivers 1
	if _, _, err := readFrame(&buf, handshakeLimit); err == nil {
		t.Error("truncated frame must error")
	}
}

func TestExpectFrameTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgJoin, []byte{0, 0, 0, 0}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if _, err := expectFrame(&buf, MsgWelcome, handshakeLimit); !errors.Is(err, ErrProtocol) {
		t.Errorf("type mismatch = %v, want ErrProtocol", err)
	}
}

func TestTrainRequestRoundTrip(t *testing.T) {
	m := ml.NewModel(3, 4, ml.Softmax)
	m.W.Set(1, 2, 7.5)
	req := TrainRequest{Round: 9, Epochs: 40, LearningRate: 0.01, BaseRound: 9}
	payload := m.AppendBinary(appendTrainRequestHeader(nil, req))
	back, body, err := decodeTrainRequest(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back != req {
		t.Errorf("header lost: %+v, want %+v", back, req)
	}
	var got ml.Model
	if err := got.UnmarshalBinaryReuse(body); err != nil {
		t.Fatalf("decode model: %v", err)
	}
	if got.ParamDistance(m) != 0 {
		t.Error("model lost in transit")
	}
}

func TestTrainReplyRoundTrip(t *testing.T) {
	m := ml.NewModel(2, 2, ml.Sigmoid)
	m.B[1] = -3
	rep := TrainReply{Round: 4, Loss: 0.125, Samples: 3000, Model: m}
	payload, err := appendTrainReply(nil, rep)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := decodeTrainReplyInto(payload, &ml.Model{}, nil, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Round != 4 || back.Loss != 0.125 || back.Samples != 3000 || back.Bits != 0 || back.Order != 0 {
		t.Errorf("header lost: %+v", back)
	}
	if back.Model.ParamDistance(m) != 0 {
		t.Error("model lost in transit")
	}
}

// TestLosslessReplyRoundTrip walks a reply through the three lossless bodies:
// raw when the coordinator holds nothing, a first-order delta against the
// request's model, a second-order one decoded in place over the previous
// reply — and the refusals when a body names a prediction the decoder cannot
// form.
func TestLosslessReplyRoundTrip(t *testing.T) {
	sent, prevSent := randomWireModel(1), randomWireModel(1)
	mat.Scale(prevSent.W.RawData(), 1-1e-6)
	prevLocal, local := sent.Clone(), sent.Clone()
	mat.Scale(prevLocal.W.RawData(), 1+1e-6)
	mat.Scale(local.W.RawData(), 1+2e-6)
	rep := TrainReply{Round: 4, Loss: 0.5, Samples: 40, Model: local}

	first, err := appendTrainReply(nil, rep, sent)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	second, err := appendTrainReply(nil, rep, sent, prevLocal, prevSent)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(second) >= len(first) || len(first) >= trainRepHeaderLen+local.EncodedSize() {
		t.Errorf("bodies of %d (second order), %d (first order), %d (raw) bytes: want them to shrink in that order",
			len(second), len(first), trainRepHeaderLen+local.EncodedSize())
	}
	var scratch ml.Model
	back, err := decodeTrainReplyInto(first, &scratch, sent, nil)
	if err != nil || back.Bits != deltaBits || back.Order != 1 || back.Model.ParamDistance(local) != 0 {
		t.Errorf("first-order reply = %+v, %v", back, err)
	}
	inPlace := prevLocal.Clone() // the slot's repModel, still holding the previous reply
	back, err = decodeTrainReplyInto(second, inPlace, sent, prevSent)
	if err != nil || back.Bits != deltaBits || back.Order != 2 || back.Model != inPlace || inPlace.ParamDistance(local) != 0 {
		t.Errorf("second-order reply = %+v, %v", back, err)
	}
	if back.WireBytes != len(second)-trainRepHeaderLen {
		t.Errorf("WireBytes = %d, want %d", back.WireBytes, len(second)-trainRepHeaderLen)
	}

	corrupt := func(payload []byte, at int, v byte) []byte {
		out := append([]byte(nil), payload...)
		out[at] = v
		return out
	}
	for name, tc := range map[string]struct {
		payload        []byte
		sent, prevSent *ml.Model
	}{
		"first-order-without-the-sent-model":   {first, nil, nil},
		"second-order-without-previous-models": {second, sent, nil},
		"delta-with-order-0":                   {corrupt(first, 17, 0), sent, nil},
		"delta-with-order-3":                   {corrupt(first, 17, 3), sent, nil},
		"raw-with-an-order":                    {corrupt(first, 16, 0), sent, nil},
		"unknown-bits":                         {corrupt(first, 16, 32), sent, nil},
		"high-codec-bytes":                     {corrupt(first, 19, 1), sent, nil},
		"trailing-byte":                        {append(append([]byte(nil), first...), 0), sent, nil},
		"short-body":                           {first[:len(first)-1], sent, nil},
	} {
		if _, err := decodeTrainReplyInto(tc.payload, &ml.Model{}, tc.sent, tc.prevSent); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeShortBodies(t *testing.T) {
	if _, _, err := decodeTrainRequest([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short request = %v, want ErrProtocol", err)
	}
	if _, err := decodeTrainReplyInto([]byte{1, 2}, &ml.Model{}, nil, nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("short reply = %v, want ErrProtocol", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for _, m := range []MsgType{MsgJoin, MsgWelcome, MsgTrainRequest, MsgTrainReply, MsgShutdown} {
		if m.String() == "" {
			t.Errorf("MsgType %d has empty name", m)
		}
	}
	if MsgType(77).String() == "" {
		t.Error("unknown type must still print")
	}
}

// --- end-to-end tests ---------------------------------------------------------

// startCluster spins up a coordinator plus `servers` edge clients over
// loopback TCP and returns the coordinator and a wait function for the
// clients.
func startCluster(t *testing.T, servers, k, epochs int) (*Coordinator, func() []error) {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 500
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
			ClientsPerRound: k,
			LocalEpochs:     epochs,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	errs := make([]error, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
			})
		}(i)
	}
	wait := func() []error {
		wg.Wait()
		return errs
	}
	t.Cleanup(coord.Shutdown)
	return coord, wait
}

// runRounds drives coord's rounds until stop fires, then shuts it down, as
// cmd/fedcoord does.
func runRounds(ctx context.Context, coord *Coordinator, stop fl.StopCondition) ([]fl.RoundRecord, error) {
	for !stop(coord.History()) {
		if _, err := coord.Round(ctx); err != nil {
			return coord.History(), err
		}
	}
	coord.Shutdown()
	return coord.History(), nil
}

// connected counts the roster slots that hold a live connection.
func connected(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connectedLocked()
}

func TestNetworkedTrainingEndToEnd(t *testing.T) {
	coord, wait := startCluster(t, 5, 3, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, 5); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	history, err := runRounds(ctx, coord, fl.MaxRounds(8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(history) != 8 {
		t.Fatalf("got %d rounds, want 8", len(history))
	}
	first, last := history[0], history[7]
	if last.TrainLoss >= first.TrainLoss {
		t.Errorf("networked loss did not fall: %v -> %v", first.TrainLoss, last.TrainLoss)
	}
	if last.TestAccuracy < 0.5 {
		t.Errorf("networked accuracy = %v after 8 rounds", last.TestAccuracy)
	}
	for i, err := range wait() {
		if err != nil {
			t.Errorf("edge server %d exited with %v", i, err)
		}
	}
}

func TestNetworkedMatchesInProcess(t *testing.T) {
	// Same data, same seed, full participation (selection order irrelevant):
	// the networked run must match the in-process engine's aggregated model
	// trajectory.
	servers, k, epochs := 4, 4, 3
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

	// In-process reference.
	flCfg := fl.Config{
		ClientsPerRound: k,
		LocalEpochs:     epochs,
		LearningRate:    0.5,
		Decay:           0.99,
		Seed:            1,
	}
	engine, err := fl.NewEngine(flCfg, shards, fl.WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := engine.Run(fl.MaxRounds(4)); err != nil {
		t.Fatalf("engine Run: %v", err)
	}

	// Networked run.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: flCfg, Classes: train.Classes, Features: train.Dim(),
		RoundTimeout: 30 * time.Second, JoinTimeout: 10 * time.Second,
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
	history, err := runRounds(ctx, coord, fl.MaxRounds(4))
	if err != nil {
		t.Fatalf("coordinator Run: %v", err)
	}
	wg.Wait()

	// Full participation with full-batch SGD is deterministic: the global
	// models after 4 rounds must match bit-for-bit up to aggregation order
	// (the coordinator may sum clients in a different order, so allow tiny
	// float reordering noise).
	dist := engine.Global().ParamDistance(coord.Global())
	if dist > 1e-9 {
		t.Errorf("networked and in-process models diverged by %v", dist)
	}
	netAcc := history[3].TestAccuracy
	engAcc := engine.History()[3].TestAccuracy
	if netAcc != engAcc {
		t.Errorf("accuracy mismatch: networked %v vs in-process %v", netAcc, engAcc)
	}
}

func TestCoordinatorRejectsBadConfig(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if _, err := NewCoordinator(CoordinatorConfig{Classes: 0, Features: 5}, ln, nil); !errors.Is(err, ErrCoordinator) {
		t.Errorf("zero classes = %v, want ErrCoordinator", err)
	}
	if _, err := NewCoordinator(CoordinatorConfig{
		Classes: 2, Features: 2,
		FL: fl.Config{ClientsPerRound: 0, LocalEpochs: 1, LearningRate: 1},
	}, ln, nil); !errors.Is(err, ErrCoordinator) {
		t.Errorf("K=0 = %v, want ErrCoordinator", err)
	}
	// The schedule is checked at start-up, not by an edge's optimizer
	// mid-run: a decay above 1 would grow the step every round, a negative
	// one send a negative γ.
	for _, tt := range []struct {
		name      string
		lr, decay float64
	}{
		{"lr NaN", math.NaN(), 0.99},
		{"lr +Inf", math.Inf(1), 0.99},
		{"decay -1", 0.1, -1},
		{"decay 1.5", 0.1, 1.5},
		{"decay NaN", 0.1, math.NaN()},
	} {
		if _, err := NewCoordinator(CoordinatorConfig{
			Classes: 2, Features: 2,
			FL: fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: tt.lr, Decay: tt.decay},
		}, ln, nil); !errors.Is(err, ErrCoordinator) {
			t.Errorf("%s = %v, want ErrCoordinator", tt.name, err)
		}
	}
}

func TestRoundWithoutEnoughClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:      fl.Config{ClientsPerRound: 2, LocalEpochs: 1, LearningRate: 0.1},
		Classes: 2, Features: 2,
	}, ln, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	if _, err := coord.Round(context.Background()); !errors.Is(err, ErrCoordinator) {
		t.Errorf("round with no clients = %v, want ErrCoordinator", err)
	}
}

func TestDialFailsFast(t *testing.T) {
	shard := &dataset.Dataset{}
	if _, err := dialAs(EdgeConfig{Addr: "127.0.0.1:1", Shard: shard}, -1); !errors.Is(err, ErrEdge) {
		t.Errorf("empty shard = %v, want ErrEdge", err)
	}
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := dialAs(EdgeConfig{Addr: "127.0.0.1:1", Shard: d, DialTimeout: 200 * time.Millisecond}, -1); err == nil {
		t.Error("dialing a dead port must fail")
	}
}

func TestEdgeServeContextCancel(t *testing.T) {
	// An edge server blocked on reads must unblock when its context dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Fake coordinator: accept, answer the handshake, then go silent.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := expectFrame(conn, MsgJoin, handshakeLimit); err != nil {
			return
		}
		if err := writeFrame(conn, MsgWelcome, encodeWelcome(0)); err != nil {
			return
		}
		// Hold the connection open silently.
		time.Sleep(5 * time.Second)
		conn.Close()
	}()

	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = RunEdgeServer(ctx, EdgeConfig{Addr: ln.Addr().String(), Shard: d})
	if err == nil {
		t.Fatal("cancelled serve must return an error")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("context cancellation did not unblock the read promptly")
	}
}

func TestWaitForClientsTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:      fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: 0.1},
		Classes: 2, Features: 2,
		JoinTimeout: 200 * time.Millisecond,
	}, ln, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	start := time.Now()
	if err := coord.WaitForClients(context.Background(), 3); err == nil {
		t.Error("waiting for clients that never come must fail")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("join timeout not honoured")
	}
}
