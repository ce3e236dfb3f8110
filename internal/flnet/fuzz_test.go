package flnet

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// Fuzzers for every decode path reachable from the network: a malicious or
// corrupt peer must produce errors, never panics or huge allocations.

func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, MsgJoin, encodeJoin(3000))
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 1, byte(MsgShutdown)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are expected and fine.
		_, _, _ = readFrame(bytes.NewReader(data), 1<<16)
	})
}

func FuzzDecodeTrainRequestV2(f *testing.F) {
	m := ml.NewModel(2, 3, ml.Softmax)
	full := appendTrainRequestHeader(nil, TrainRequest{Round: 2, BaseRound: 2, Epochs: 1, LearningRate: 0.1})
	full = m.AppendBinary(full)
	f.Add(full)
	resid := appendTrainRequestHeader(nil, TrainRequest{Round: 2, BaseRound: 1, DownBits: ml.Quant8, Epochs: 1, LearningRate: 0.1})
	resid, err := ml.AppendQuantized(resid, m, ml.Quant8)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resid)
	// Truncated residual: valid header, short quantized body.
	f.Add(resid[:len(resid)-3])
	// Lossless delta bodies of both orders, whole, short and long. (Small
	// models code no smaller than raw, hence the 4×16.)
	g, g1, g2 := ml.NewModel(4, 16, ml.Softmax), ml.NewModel(4, 16, ml.Softmax), ml.NewModel(4, 16, ml.Softmax)
	g.W.Fill(0.25)
	g1.W.Fill(0.2499)
	g2.W.Fill(0.2498)
	for _, pred := range [][]*ml.Model{{g1}, {g1, g1, g2}} {
		delta := appendLosslessRequest(nil, TrainRequest{Round: 2, BaseRound: 1, Epochs: 1, LearningRate: 0.1}, g, pred...)
		if delta[20] != byte(deltaBits) {
			f.Fatal("seed request did not code as a delta")
		}
		f.Add(delta)
		f.Add(delta[:len(delta)-2])
		f.Add(append(append([]byte(nil), delta...), 0))
	}
	// Header-only, empty, and a reserved-byte violation.
	f.Add(full[:trainReqHeaderLen])
	f.Add([]byte{})
	bad := append([]byte(nil), full...)
	bad[21] = 0xff
	f.Add(bad)
	// A step size the edge must not train with.
	f.Add(m.AppendBinary(appendTrainRequestHeader(nil, TrainRequest{Round: 2, BaseRound: 2, Epochs: 1, LearningRate: math.NaN()})))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, body, err := decodeTrainRequest(data)
		if err != nil {
			return
		}
		if !(req.LearningRate > 0) || math.IsInf(req.LearningRate, 0) {
			t.Fatalf("learning rate %v accepted", req.LearningRate)
		}
		// Whatever decodes must satisfy the header invariants the edge
		// relies on, and the body must either decode or error — no panics.
		if req.DownBits == 0 && req.BaseRound != req.Round {
			t.Fatalf("full request with base %d != round %d accepted", req.BaseRound, req.Round)
		}
		if req.BaseRound > req.Round {
			t.Fatalf("future base round accepted: %+v", req)
		}
		if (req.DownBits == deltaBits) != (req.DownOrder != 0) || req.DownOrder > 2 {
			t.Fatalf("codec %d accepted with predictor order %d", req.DownBits, req.DownOrder)
		}
		var scratch ml.Model
		switch {
		case req.DownBits == 0:
			_ = scratch.UnmarshalBinaryReuse(body)
		case req.DownBits != deltaBits:
			_ = scratch.DequantizeInto(body)
		case req.DownOrder == 1:
			decodeDeltaBounded(t, &scratch, body, g1)
		default:
			decodeDeltaBounded(t, &scratch, body, g1, g1, g2)
		}
	})
}

// decodeDeltaBounded decodes a fuzzed delta body the way an edge would: it may
// fail, but whatever it builds has the predictors' shape — a body cannot make
// the decoder allocate more than a model the link already carried — and a body
// that decodes is used up exactly.
func decodeDeltaBounded(t *testing.T, dst *ml.Model, body []byte, pred ...*ml.Model) {
	t.Helper()
	err := ml.ApplyDelta(dst, body, pred...)
	if dst.W != nil && (dst.Classes() != pred[0].Classes() || dst.Features() != pred[0].Features()) {
		t.Fatalf("delta body built a %dx%d model from %dx%d predictors", dst.Classes(), dst.Features(), pred[0].Classes(), pred[0].Features())
	}
	if err == nil && ml.ApplyDelta(dst, append(append([]byte(nil), body...), 0), pred...) == nil {
		t.Fatal("delta body accepted with a trailing byte")
	}
}

func FuzzDecodeTrainReply(f *testing.F) {
	m := ml.NewModel(2, 3, ml.Sigmoid)
	full, err := appendTrainReply(nil, TrainReply{Round: 1, Loss: 0.5, Samples: 10, Model: m})
	if err != nil {
		f.Fatal(err)
	}
	quant, err := appendTrainReply(nil, TrainReply{Round: 1, Loss: 0.5, Samples: 10, Bits: ml.Quant8, Model: m})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(quant)
	f.Add([]byte{1, 2, 3})
	// Lossless delta replies of both orders, whole, short and long.
	sent, prevSent, prevLocal, local := ml.NewModel(4, 16, ml.Sigmoid), ml.NewModel(4, 16, ml.Sigmoid), ml.NewModel(4, 16, ml.Sigmoid), ml.NewModel(4, 16, ml.Sigmoid)
	sent.W.Fill(0.25)
	prevSent.W.Fill(0.2499)
	prevLocal.W.Fill(0.2502)
	local.W.Fill(0.2503)
	for _, pred := range [][]*ml.Model{{sent}, {sent, prevLocal, prevSent}} {
		delta, err := appendTrainReply(nil, TrainReply{Round: 1, Loss: 0.5, Samples: 10, Model: local}, pred...)
		if err != nil || delta[16] != byte(deltaBits) {
			f.Fatalf("seed reply did not code as a delta: %v", err)
		}
		f.Add(delta)
		f.Add(delta[:len(delta)-2])
		f.Add(append(append([]byte(nil), delta...), 0))
	}
	// A loss that would poison the coordinator's training-loss proxy.
	nanLoss, err := appendTrainReply(nil, TrainReply{Round: 1, Loss: math.NaN(), Samples: 10, Model: m})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nanLoss)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decoded as the coordinator does, in place over the previous reply.
		m := prevLocal.Clone()
		rep, err := decodeTrainReplyInto(data, m, sent, prevSent)
		if err != nil {
			return
		}
		if math.IsNaN(rep.Loss) || math.IsInf(rep.Loss, 0) {
			t.Fatalf("loss %v accepted", rep.Loss)
		}
		if rep.Model != m || rep.Model.Classes() <= 0 {
			t.Fatalf("decode accepted an unusable reply: %+v", rep)
		}
		if (rep.Bits == deltaBits) != (rep.Order != 0) || rep.Order > 2 {
			t.Fatalf("codec %d accepted with predictor order %d", rep.Bits, rep.Order)
		}
		if rep.Bits == deltaBits && (m.Classes() != sent.Classes() || m.Features() != sent.Features()) {
			t.Fatalf("delta reply built a %dx%d model from %dx%d predictors", m.Classes(), m.Features(), sent.Classes(), sent.Features())
		}
		if _, err := decodeTrainReplyInto(append(append([]byte(nil), data...), 0), prevLocal.Clone(), sent, prevSent); err == nil {
			t.Fatal("reply accepted with a trailing byte")
		}
	})
}

// fuzzAddr / fuzzConn form a non-blocking net.Conn over an in-memory byte
// slice: reads drain the slice then return EOF, writes always succeed. The
// register handshake can therefore never block on it, so every fuzz
// iteration terminates — a hang would surface as the fuzzer timing out.
type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

type fuzzConn struct{ r *bytes.Reader }

func (c *fuzzConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *fuzzConn) Close() error                       { return nil }
func (c *fuzzConn) LocalAddr() net.Addr                { return fuzzAddr{} }
func (c *fuzzConn) RemoteAddr() net.Addr               { return fuzzAddr{} }
func (c *fuzzConn) SetDeadline(time.Time) error        { return nil }
func (c *fuzzConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(t time.Time) error { return nil }

// FuzzRejoinHandshake feeds arbitrary bytes into the coordinator's
// registration handshake — the frame a reconnecting (or malicious) edge
// sends first. Malformed joins and re-registrations must produce errors,
// never panics, and must leave the roster consistent.
func FuzzRejoinHandshake(f *testing.F) {
	// The retired v1 shapes — version-less Join and Rejoin — are must-reject
	// inputs now, as are several checked-in corpus files.
	var joinV1 bytes.Buffer
	_ = writeFrame(&joinV1, MsgJoin, []byte{50, 0, 0, 0})
	f.Add(joinV1.Bytes())
	var rejoinV1 bytes.Buffer
	_ = writeFrame(&rejoinV1, MsgRejoin, []byte{0, 0, 0, 0, 50, 0, 0, 0})
	f.Add(rejoinV1.Bytes())
	var unknown bytes.Buffer
	_ = writeFrame(&unknown, MsgRejoin, encodeRejoin(9999, 50))
	f.Add(unknown.Bytes())
	var short bytes.Buffer
	_ = writeFrame(&short, MsgRejoin, []byte{1, 2})
	f.Add(short.Bytes())
	var wrongType bytes.Buffer
	_ = writeFrame(&wrongType, MsgTrainReply, encodeRejoin(0, 50))
	f.Add(wrongType.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 42})
	f.Add([]byte{})
	// Well-formed handshakes, plus mismatched version bytes: a versioned
	// body advertising v1, and a far-future version that is welcomed at v2.
	var join bytes.Buffer
	_ = writeFrame(&join, MsgJoin, encodeJoin(50))
	f.Add(join.Bytes())
	var rejoin bytes.Buffer
	_ = writeFrame(&rejoin, MsgRejoin, encodeRejoin(0, 50))
	f.Add(rejoin.Bytes())
	var joinBadVer bytes.Buffer
	_ = writeFrame(&joinBadVer, MsgJoin, []byte{50, 0, 0, 0, 1})
	f.Add(joinBadVer.Bytes())
	var joinFuture bytes.Buffer
	_ = writeFrame(&joinFuture, MsgJoin, []byte{50, 0, 0, 0, 250})
	f.Add(joinFuture.Bytes())
	// Oversized length prefix: promises 64 MiB + 1, must be rejected
	// deterministically before any allocation of that size.
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, byte(MsgJoin)})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh in-package coordinator with one pre-registered client, so
		// rejoin frames can hit both the known-id and unknown-id paths.
		c := &Coordinator{
			cfg: CoordinatorConfig{
				FL:       fl.Config{ClientsPerRound: 1, LocalEpochs: 1, LearningRate: 0.1},
				Classes:  2,
				Features: 3,
			},
			rng: mat.NewRNG(1),
		}
		c.clients = []*clientConn{{
			id:        0,
			conn:      &fuzzConn{r: bytes.NewReader(nil)},
			samples:   5,
			connected: true,
		}}

		_ = c.register(&fuzzConn{r: bytes.NewReader(data)})

		// Roster invariants survive any input: slot 0 still exists under
		// its id, and at most one new slot was appended with the next id.
		if len(c.clients) < 1 || len(c.clients) > 2 {
			t.Fatalf("roster has %d slots after one handshake", len(c.clients))
		}
		for i, cl := range c.clients {
			if cl.id != i {
				t.Fatalf("slot %d holds id %d", i, cl.id)
			}
			if cl.conn == nil {
				t.Fatalf("slot %d lost its connection", i)
			}
		}
	})
}
