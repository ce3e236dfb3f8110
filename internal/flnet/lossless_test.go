package flnet

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// linkTap wraps one connection of an edge and keeps both directions, so a
// test can read back which codec every frame travelled in. With cutAt ≥ 0 it
// also severs the link the moment the request of that round starts to arrive:
// a mid-round, mid-frame loss at a round of the test's choosing.
type linkTap struct {
	net.Conn
	cutAt int

	mu      sync.Mutex
	in, out []byte
	next    int // offset in in of the first frame not yet inspected
}

func (c *linkTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.in = append(c.in, p[:n]...)
	// Walk the frames whose length, type and first header field have arrived.
	for c.cutAt >= 0 && len(c.in)-c.next >= frameHeaderLen+4 {
		size := int(binary.BigEndian.Uint32(c.in[c.next:]))
		round := int(binary.LittleEndian.Uint32(c.in[c.next+frameHeaderLen:]))
		if MsgType(c.in[c.next+4]) == MsgTrainRequest && round == c.cutAt {
			c.Conn.Close()
			return 0, errors.New("linkTap: link cut")
		}
		c.next += 4 + size
	}
	return n, err
}

func (c *linkTap) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out = append(c.out, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// codecs parses the complete frames of one recorded direction and returns,
// per training frame, the round and the codec its model body travelled in.
type frameCodec struct {
	round, base  int
	bits         ml.QuantBits
	order, bytes int
}

func codecs(t *testing.T, stream []byte) []frameCodec {
	t.Helper()
	var out []frameCodec
	for len(stream) >= 4 {
		size := int(binary.BigEndian.Uint32(stream))
		if len(stream) < 4+size {
			break // the frame the link was cut in
		}
		typ, payload := MsgType(stream[4]), stream[frameHeaderLen:4+size]
		stream = stream[4+size:]
		switch typ {
		case MsgTrainRequest:
			req, body, err := decodeTrainRequest(payload)
			if err != nil {
				t.Fatalf("recorded request: %v", err)
			}
			out = append(out, frameCodec{req.Round, req.BaseRound, req.DownBits, req.DownOrder, len(body)})
		case MsgTrainReply:
			codec := binary.LittleEndian.Uint32(payload[16:20])
			out = append(out, frameCodec{int(binary.LittleEndian.Uint32(payload)), -1,
				ml.QuantBits(codec & 0xff), int(codec >> 8), len(payload) - trainRepHeaderLen})
		}
	}
	return out
}

// losslessRun is one tapped training run and what it left behind.
type losslessRun struct {
	global  *ml.Model
	history []fl.RoundRecord
	aborted int          // Round calls that returned an error
	taps    [][]*linkTap // per edge, one per connection it opened
}

type losslessOpts struct {
	servers, k, rounds int
	// lossProb > 0 runs over fldgram with that per-attempt loss on both
	// directions; dgram alone selects fldgram without injected loss.
	dgram    bool
	lossProb float64
	// cutEdge's first connection is severed when round cutAt's request
	// arrives (cutAt < 0: no fault). With grace the round repairs itself;
	// without, it aborts and is run again.
	cutEdge, cutAt int
	grace          time.Duration
	down, up       ml.QuantBits
}

// runLossless trains clusterFixture's task on a real coordinator and real
// edges whose connections are tapped. Edges join in shard order, so the run is
// a pure function of the options.
func runLossless(t *testing.T, o losslessOpts) losslessRun {
	t.Helper()
	shards, test, flCfg := clusterFixture(t, o.servers)
	flCfg.ClientsPerRound = o.k
	var ln net.Listener
	var err error
	dgramCfg := fldgram.Config{Seed: 9, SuccessProb: 1 - o.lossProb}
	if o.dgram {
		ln, err = fldgram.Listen("127.0.0.1:0", dgramCfg)
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: flCfg, Classes: test.Classes, Features: test.Dim(),
		RoundTimeout: 30 * time.Second, JoinTimeout: 10 * time.Second,
		RejoinGrace: o.grace, DownloadQuantBits: o.down, UploadQuantBits: o.up,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	run := losslessRun{taps: make([][]*linkTap, o.servers)}
	var mu sync.Mutex // guards run.taps: an edge redials on its own goroutine
	var wg sync.WaitGroup
	for i := 0; i < o.servers; i++ {
		dial := func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
		if o.dgram {
			cfg := dgramCfg
			cfg.Seed += uint64(i) + 1
			if dial, err = fldgram.Dialer(cfg); err != nil {
				t.Fatalf("fldgram.Dialer: %v", err)
			}
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunEdgeServer(ctx, EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1), Retry: chaosRetry(),
				Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
					conn, err := dial(addr, timeout)
					if err != nil {
						return nil, err
					}
					mu.Lock()
					defer mu.Unlock()
					tap := &linkTap{Conn: conn, cutAt: -1}
					if i == o.cutEdge && len(run.taps[i]) == 0 {
						tap.cutAt = o.cutAt
					}
					run.taps[i] = append(run.taps[i], tap)
					return tap, nil
				},
			})
		}()
		if err := coord.AwaitRoster(ctx, i+1, 30*time.Second); err != nil {
			t.Fatalf("edge %d join: %v", i, err)
		}
	}
	for len(coord.History()) < o.rounds {
		if _, err := coord.Round(ctx); err != nil {
			if run.aborted++; run.aborted > 3 {
				t.Fatalf("round %d keeps failing: %v", len(coord.History()), err)
			}
			if err := coord.AwaitRoster(ctx, o.servers, 30*time.Second); err != nil {
				t.Fatalf("after aborted round: %v", err)
			}
		}
	}
	run.global, run.history = coord.Global(), coord.History()
	coord.Shutdown()
	wg.Wait()
	return run
}

// directFedAvg is the reference the wire is held to: FedAvg on clusterFixture
// with k of the servers selected per round, computed sequentially in this
// goroutine with no frames, no pools and no connections — the coordinator's
// selection stream, each edge's per-round SGD seed, and Eq. 2's mean
// accumulated in slot order. The round abortedAt (−1: none) was attempted
// twice: the coordinator drew a selection for the attempt that failed, so the
// reference draws one too.
func directFedAvg(t *testing.T, servers, k, rounds, abortedAt int) (global *ml.Model, losses, accs []float64) {
	t.Helper()
	shards, test, cfg := clusterFixture(t, servers)
	global = ml.NewModel(test.Classes, test.Dim(), ml.Softmax)
	rng := mat.NewRNG(cfg.Seed)
	ev := ml.NewEvaluator(1)
	for round := 0; round < rounds; round++ {
		lr := cfg.LearningRate * math.Pow(cfg.Decay, float64(round))
		agg := ml.NewModel(test.Classes, test.Dim(), ml.Softmax)
		var lossSum float64
		if round == abortedAt {
			rng.Sample(servers, k)
		}
		for _, id := range rng.Sample(servers, k) {
			local := global.Clone()
			sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: lr, Seed: uint64(id+1) ^ uint64(round)<<16})
			if err != nil {
				t.Fatalf("NewSGD: %v", err)
			}
			loss, err := sgd.TrainFinal(local, shards[id], cfg.LocalEpochs)
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, id, err)
			}
			if err := agg.AddScaled(1/float64(k), local); err != nil {
				t.Fatalf("round %d aggregate: %v", round, err)
			}
			lossSum += loss
		}
		acc, err := ev.Accuracy(agg, test)
		if err != nil {
			t.Fatalf("round %d accuracy: %v", round, err)
		}
		losses, accs = append(losses, lossSum/float64(k)), append(accs, acc)
		global = agg
	}
	return global, losses, accs
}

// assertMatchesDirect holds a wire run to the sequential reference, bit for
// bit: the delta bodies may change bytes, never arithmetic.
func assertMatchesDirect(t *testing.T, name string, run losslessRun, servers, k, abortedAt int) {
	t.Helper()
	want, losses, accs := directFedAvg(t, servers, k, len(run.history), abortedAt)
	if d := run.global.ParamDistance(want); d != 0 {
		t.Errorf("%s: wire run diverged from direct arithmetic by %v, want bit-identical", name, d)
	}
	for r, rec := range run.history {
		if rec.TrainLoss != losses[r] || rec.TestAccuracy != accs[r] {
			t.Errorf("%s round %d: wire (loss %v acc %v) vs direct (loss %v acc %v)",
				name, r, rec.TrainLoss, rec.TestAccuracy, losses[r], accs[r])
		}
	}
}

// TestLosslessDeltaMatchesDirectArithmetic runs K = 3 of 5 — so connections
// sit idle between selections — over TCP and over the datagram link at 0 % and
// 10 % loss. Every transport must reproduce the direct arithmetic bit for
// bit, and the taps must show the state machine at work: a raw body on a
// connection's first request, first-order bodies across idle gaps,
// second-order ones on consecutive rounds, and no body longer than raw.
func TestLosslessDeltaMatchesDirectArithmetic(t *testing.T) {
	const servers, k, rounds = 5, 3, 14
	for _, tc := range []struct {
		name string
		o    losslessOpts
	}{
		{"tcp", losslessOpts{}},
		{"dgram", losslessOpts{dgram: true}},
		{"dgram-loss10", losslessOpts{dgram: true, lossProb: 0.1}},
	} {
		tc.o.servers, tc.o.k, tc.o.rounds, tc.o.cutAt = servers, k, rounds, -1
		run := runLossless(t, tc.o)
		assertMatchesDirect(t, tc.name, run, servers, k, -1)

		raw := run.global.EncodedSize()
		seen := map[[2]int]int{} // (direction, predictor order) → frames
		gaps := 0
		for edge, taps := range run.taps {
			if len(taps) != 1 {
				t.Fatalf("%s: edge %d opened %d connections, want 1", tc.name, edge, len(taps))
			}
			reqs, reps := codecs(t, taps[0].in), codecs(t, taps[0].out)
			if len(reqs) != len(reps) {
				t.Fatalf("%s: edge %d read %d requests and wrote %d replies", tc.name, edge, len(reqs), len(reps))
			}
			for i, req := range reqs {
				rep := reps[i]
				// Raw is how a connection starts, and the encoder's fallback
				// afterwards (the first rounds move every weight by its own
				// size); whatever is coded is coded against what the
				// connection's history says it holds.
				if i == 0 && req.bits != 0 {
					t.Errorf("%s: edge %d's first request (round %d) has downlink bits %d, want a raw body", tc.name, edge, req.round, req.bits)
				}
				if req.bits == deltaBits {
					prev := reqs[i-1].round
					wantOrder := 1
					if prev == req.round-1 && i > 1 && reqs[i-2].round == req.round-2 {
						wantOrder = 2
					}
					if req.base != prev || req.order != wantOrder {
						t.Errorf("%s: edge %d round %d coded order %d against round %d; it was last sent round %d, want order %d",
							tc.name, edge, req.round, req.order, req.base, prev, wantOrder)
					}
					if prev < req.round-1 {
						gaps++
					}
				}
				if rep.bits == deltaBits {
					wantOrder := 1
					if i > 0 && reqs[i-1].round == req.round-1 {
						wantOrder = 2
					}
					if rep.order != wantOrder {
						t.Errorf("%s: edge %d round %d replied with order %d, want %d", tc.name, edge, rep.round, rep.order, wantOrder)
					}
				}
				if req.bytes > raw || rep.bytes > raw {
					t.Errorf("%s: edge %d round %d bodies of %d and %d bytes exceed raw (%d)", tc.name, edge, req.round, req.bytes, rep.bytes, raw)
				}
				seen[[2]int{0, req.order}]++
				seen[[2]int{1, rep.order}]++
			}
		}
		for _, key := range [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}} {
			if seen[key] == 0 {
				t.Errorf("%s: no frame in direction %d with predictor order %d: the case is not exercised", tc.name, key[0], key[1])
			}
		}
		if gaps == 0 {
			t.Errorf("%s: no connection sat out a round: the gap case is not exercised", tc.name)
		}
		// Warm rounds must be cheaper than the cold one, on both legs.
		cold, warm := run.history[0], run.history[rounds-1]
		if warm.DownlinkBytes >= cold.DownlinkBytes || warm.UplinkBytes >= cold.UplinkBytes {
			t.Errorf("%s: warm round moved %d/%d bytes, cold round %d/%d: nothing saved",
				tc.name, warm.DownlinkBytes, warm.UplinkBytes, cold.DownlinkBytes, cold.UplinkBytes)
		}
	}
}

// TestLosslessDeltaSurvivesFaults cuts one edge's link in the middle of a warm
// round's request. With a grace window the round repairs itself on the fresh
// connection; without one it aborts and the same round runs again, on two
// connections that already hold its model. Either way training continues bit
// for bit, and a fresh connection's first request is a raw body.
func TestLosslessDeltaSurvivesFaults(t *testing.T) {
	const servers, rounds, cutAt = 3, 8, 4
	for _, tc := range []struct {
		name  string
		grace time.Duration
	}{
		{"repaired-in-round", 10 * time.Second},
		{"aborted-then-repeated", 0},
	} {
		run := runLossless(t, losslessOpts{servers: servers, k: servers, rounds: rounds, cutEdge: 1, cutAt: cutAt, grace: tc.grace})
		abortedAt, wantAborted := -1, 0
		if tc.grace == 0 {
			abortedAt, wantAborted = cutAt, 1
		}
		assertMatchesDirect(t, tc.name, run, servers, servers, abortedAt)
		if run.aborted != wantAborted {
			t.Errorf("%s: %d rounds aborted, want %d", tc.name, run.aborted, wantAborted)
		}
		if tc.grace > 0 && run.history[cutAt].Retries != 1 {
			t.Errorf("%s: round %d records %d retries, want 1", tc.name, cutAt, run.history[cutAt].Retries)
		}
		if n := len(run.taps[1]); n != 2 {
			t.Fatalf("%s: the cut edge opened %d connections, want 2", tc.name, n)
		}
		// The fresh connection starts from nothing: a raw request for the round
		// the fault hit, answered against that request alone.
		fresh := codecs(t, run.taps[1][1].in)
		if len(fresh) == 0 || fresh[0].round != cutAt || fresh[0].bits != 0 {
			t.Errorf("%s: first request on the fresh connection = %+v, want a raw body for round %d", tc.name, fresh, cutAt)
		}
		if rep := codecs(t, run.taps[1][1].out); len(rep) == 0 || rep[0].bits != deltaBits || rep[0].order != 1 {
			t.Errorf("%s: first reply on the fresh connection = %+v, want a first-order delta", tc.name, rep)
		}
		// Two rounds later it is back to second-order bodies.
		if last := fresh[len(fresh)-1]; last.bits != deltaBits || last.order != 2 {
			t.Errorf("%s: last request on the fresh connection = %+v, want a second-order delta", tc.name, last)
		}
		// An undisturbed edge of the aborted run saw round cutAt twice: the
		// second time coded against itself, a body of almost nothing.
		if tc.grace == 0 {
			var again []frameCodec
			for _, req := range codecs(t, run.taps[0][0].in) {
				if req.round == cutAt {
					again = append(again, req)
				}
			}
			if len(again) != 2 || again[1].bits != deltaBits || again[1].order != 1 || again[1].base != cutAt || again[1].bytes > 200 {
				t.Errorf("%s: round %d as edge 0 saw it = %+v, want it twice, the repeat a first-order delta against itself", tc.name, cutAt, again)
			}
		}
	}
}

// scriptedEdge dials a real EdgeServer over a net.Pipe whose far end the test
// drives by hand, and returns that end plus Serve's eventual result.
func scriptedEdge(t *testing.T) (net.Conn, <-chan error) {
	t.Helper()
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	client, server := net.Pipe()
	t.Cleanup(func() { server.Close() })
	go func() {
		if _, err := expectFrame(server, MsgJoin, handshakeLimit); err == nil {
			_ = writeFrame(server, MsgWelcome, encodeWelcome(0))
		}
	}()
	edge, err := dialAs(EdgeConfig{Addr: "scripted", Shard: d, DialTimeout: 5 * time.Second,
		Dial: func(string, time.Duration) (net.Conn, error) { return client, nil }}, -1)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- edge.Serve(context.Background()) }()
	return server, done
}

// TestEdgeRefusesUnformablePredictions: a request coded against a model this
// connection does not hold — an unknown base round, a second-order body with
// no round before the base, a delta before anything was delivered — or whose
// body is short or long, ends the connection with ErrConnLost, which is what
// sends both ends back to a raw body.
func TestEdgeRefusesUnformablePredictions(t *testing.T) {
	g := []*ml.Model{randomWireModel(1), nil, nil, nil} // 10×64: QuickSyntheticConfig's task
	for i := 1; i < len(g); i++ {
		g[i] = g[i-1].Clone()
		mat.Scale(g[i].W.RawData(), 1+1e-6)
	}
	raw := func(round int) []byte {
		return appendLosslessRequest(nil, TrainRequest{Round: round, Epochs: 1, LearningRate: 0.1}, g[round])
	}
	delta := func(round, base int, pred ...*ml.Model) []byte {
		out := appendLosslessRequest(nil, TrainRequest{Round: round, BaseRound: base, Epochs: 1, LearningRate: 0.1}, g[round], pred...)
		if out[20] != byte(deltaBits) {
			t.Fatalf("round %d did not code as a delta", round)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		good [][]byte // requests the edge must answer first
		bad  []byte
	}{
		{"delta-on-a-fresh-connection", nil, delta(1, 0, g[0])},
		{"unknown-base-round", [][]byte{raw(0), delta(1, 0, g[0])}, delta(3, 2, g[2])},
		{"second-order-without-the-round-before", [][]byte{raw(1)}, delta(2, 1, g[1], g[1], g[0])},
		{"second-order-across-a-gap", [][]byte{raw(0), delta(2, 0, g[0])}, delta(3, 2, g[2], g[2], g[1])},
		{"trailing-byte", [][]byte{raw(0)}, append(delta(1, 0, g[0]), 0)},
		{"short-body", [][]byte{raw(0)}, delta(1, 0, g[0])[:trainReqHeaderLen+40]},
		{"predictor-order-3", [][]byte{raw(0)}, func() []byte { b := delta(1, 0, g[0]); b[21] = 3; return b }()},
	} {
		server, done := scriptedEdge(t)
		for i, req := range tc.good {
			if err := writeFrame(server, MsgTrainRequest, req); err != nil {
				t.Fatalf("%s: request %d: %v", tc.name, i, err)
			}
			if _, err := expectFrame(server, MsgTrainReply, 1<<20); err != nil {
				t.Fatalf("%s: reply %d: %v", tc.name, i, err)
			}
		}
		go func() { _ = writeFrame(server, MsgTrainRequest, tc.bad) }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrConnLost) {
				t.Errorf("%s: Serve = %v, want ErrConnLost", tc.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the edge kept serving", tc.name)
		}
		server.Close()
	}
}

// randomWireModel is a 10×64 model with every parameter drawn at random.
func randomWireModel(seed uint64) *ml.Model {
	rng := mat.NewRNG(seed)
	m := ml.NewModel(10, 64, ml.Softmax)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = rng.NormScaled(0, 0.5)
	}
	for i := range m.B {
		m.B[i] = rng.NormScaled(0, 0.5)
	}
	return m
}

// TestQuantizedRunsUnchanged pins the lossy codecs against the commit before
// the lossless delta existed (protocol v2): a direction whose quant knob is set
// moves exactly the bytes it moved then, the other direction moves no more
// than raw, and the trained weights are the same to the bit — error feedback
// and its per-connection reconstructions survived becoming snapshots.
func TestQuantizedRunsUnchanged(t *testing.T) {
	for _, pin := range []struct {
		down, up         ml.QuantBits
		downWarm, upWarm int64 // bytes per warm round at v2; the cold round is raw
		digest           string
	}{
		{ml.Quant8, 0, 2151, 15723, "7e594d1c9811546e"},
		{0, ml.Quant8, 15741, 2133, "0fc9ef34cf293986"},
		{ml.Quant8, ml.Quant8, 2151, 2133, "216e96cbe55e2f95"},
		{ml.Quant16, ml.Quant16, 4101, 4083, "75dbd96f53aa8cc3"},
	} {
		run := runLossless(t, losslessOpts{servers: 3, k: 3, rounds: 6, cutAt: -1, down: pin.down, up: pin.up})
		sum := sha256.Sum256(run.global.AppendBinary(nil))
		if got := hex.EncodeToString(sum[:8]); got != pin.digest {
			t.Errorf("down %d up %d: weights %s, v2 trained %s", pin.down, pin.up, got, pin.digest)
		}
		for r, rec := range run.history {
			if r == 0 {
				if rec.DownlinkBytes != 15741 {
					t.Errorf("down %d up %d: cold round moved %d bytes down, want the raw 15741", pin.down, pin.up, rec.DownlinkBytes)
				}
				continue
			}
			if quantized := pin.down != 0; quantized && rec.DownlinkBytes != pin.downWarm || rec.DownlinkBytes > pin.downWarm {
				t.Errorf("down %d up %d round %d: %d bytes down, v2 moved %d", pin.down, pin.up, r, rec.DownlinkBytes, pin.downWarm)
			}
			if quantized := pin.up != 0; quantized && rec.UplinkBytes != pin.upWarm || rec.UplinkBytes > pin.upWarm {
				t.Errorf("down %d up %d round %d: %d bytes up, v2 moved %d", pin.down, pin.up, r, rec.UplinkBytes, pin.upWarm)
			}
		}
	}
}
