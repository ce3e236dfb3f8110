package flnet

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// --- codec unit tests --------------------------------------------------------

// v1Refusal, v2Refusal and v3Refusal are what every refusal of a retired
// protocol must say.
const (
	v1Refusal = "protocol v1 is no longer supported"
	v2Refusal = "protocol v2 is no longer supported"
	v3Refusal = "protocol v3 is no longer supported"
)

func TestHandshakeCodecs(t *testing.T) {
	// One fixed body each, version byte last: Join 5 B, Welcome 5 B, Rejoin 9 B.
	join := encodeJoin(7)
	if len(join) != 5 || join[4] != ProtoV4 {
		t.Errorf("join body = %v, want 5 bytes ending in v%d", join, ProtoV4)
	}
	samples, err := decodeJoin(join)
	if err != nil || samples != 7 {
		t.Errorf("join round trip = (%d, %v)", samples, err)
	}

	welcome := encodeWelcome(3)
	if len(welcome) != 5 || welcome[4] != ProtoV4 {
		t.Errorf("welcome body = %v, want 5 bytes ending in v%d", welcome, ProtoV4)
	}
	id, err := decodeWelcome(welcome)
	if err != nil || id != 3 {
		t.Errorf("welcome round trip = (%d, %v)", id, err)
	}

	rejoin := encodeRejoin(4, 50)
	if len(rejoin) != 9 || rejoin[8] != ProtoV4 {
		t.Errorf("rejoin body = %v, want 9 bytes ending in v%d", rejoin, ProtoV4)
	}
	rid, samples, err := decodeRejoin(rejoin)
	if err != nil || rid != 4 || samples != 50 {
		t.Errorf("rejoin round trip = (%d, %d, %v)", rid, samples, err)
	}

	// A joiner from the future is still accepted (and welcomed at ProtoV4).
	if samples, err := decodeJoin([]byte{7, 0, 0, 0, 250}); err != nil || samples != 7 {
		t.Errorf("future-version join = (%d, %v), want accepted", samples, err)
	}
	if rid, _, err := decodeRejoin([]byte{4, 0, 0, 0, 50, 0, 0, 0, ProtoV4 + 1}); err != nil || rid != 4 {
		t.Errorf("future-version rejoin = (%d, %v), want accepted", rid, err)
	}
}

func TestHandshakeDecodeErrors(t *testing.T) {
	join := func(b []byte) error { _, err := decodeJoin(b); return err }
	welcome := func(b []byte) error { _, err := decodeWelcome(b); return err }
	rejoin := func(b []byte) error { _, _, err := decodeRejoin(b); return err }
	cases := []struct {
		name string
		err  error
		isV1 bool // the error must name the retired protocol
		isV2 bool
		isV3 bool
	}{
		{name: "join-empty", err: join(nil)},
		{name: "join-3-bytes", err: join([]byte{1, 2, 3})},
		{name: "join-6-bytes", err: join([]byte{1, 2, 3, 4, 5, 6})},
		{name: "welcome-short", err: welcome([]byte{1})},
		// An edge only ever advertises v4, so a newer Welcome is an upgrade
		// it did not ask for.
		{name: "welcome-v5", err: welcome([]byte{1, 0, 0, 0, ProtoV4 + 1})},
		{name: "rejoin-short", err: rejoin([]byte{1, 2})},
		{name: "rejoin-10-bytes", err: rejoin(make([]byte, 10))},
		// The retired v1 shapes: the same bodies without the version byte,
		// or a version byte below 2.
		{name: "join-v1-4-bytes", err: join([]byte{1, 0, 0, 0}), isV1: true},
		{name: "join-versioned-v1", err: join([]byte{1, 0, 0, 0, 1}), isV1: true},
		{name: "join-versioned-v0", err: join([]byte{1, 0, 0, 0, 0}), isV1: true},
		{name: "welcome-v1-4-bytes", err: welcome([]byte{1, 0, 0, 0}), isV1: true},
		{name: "welcome-versioned-v1", err: welcome([]byte{1, 0, 0, 0, 1}), isV1: true},
		{name: "welcome-versioned-v0", err: welcome([]byte{1, 0, 0, 0, 0}), isV1: true},
		{name: "rejoin-v1-8-bytes", err: rejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0}), isV1: true},
		{name: "rejoin-versioned-v1", err: rejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1}), isV1: true},
		{name: "rejoin-versioned-v0", err: rejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0}), isV1: true},
		// The retired v2: the same bodies, version byte 2 — its warm model
		// bodies were raw float64, which a v4 peer no longer sends.
		{name: "join-v2", err: join([]byte{1, 0, 0, 0, 2}), isV2: true},
		{name: "welcome-v2", err: welcome([]byte{1, 0, 0, 0, 2}), isV2: true},
		{name: "rejoin-v2", err: rejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 2}), isV2: true},
		// The retired v3: its delta bodies stored each block's values in
		// whole bytes, which a v4 decoder cannot read.
		{name: "join-v3", err: join([]byte{1, 0, 0, 0, 3}), isV3: true},
		{name: "welcome-v3", err: welcome([]byte{1, 0, 0, 0, 3}), isV3: true},
		{name: "rejoin-v3", err: rejoin([]byte{0, 0, 0, 0, 1, 0, 0, 0, 3}), isV3: true},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, tc.err)
			continue
		}
		if tc.isV1 && !strings.Contains(tc.err.Error(), v1Refusal) {
			t.Errorf("%s: err = %v, want it to name the retired v1", tc.name, tc.err)
		}
		if tc.isV2 && !strings.Contains(tc.err.Error(), v2Refusal) {
			t.Errorf("%s: err = %v, want it to name the retired v2", tc.name, tc.err)
		}
		if tc.isV3 && !strings.Contains(tc.err.Error(), v3Refusal) {
			t.Errorf("%s: err = %v, want it to name the retired v3", tc.name, tc.err)
		}
	}
}

// pipeRegister runs Coordinator.register against one scripted handshake
// frame over a net.Pipe and returns register's error plus the Welcome body
// (nil when the coordinator refused and closed).
func pipeRegister(t *testing.T, c *Coordinator, typ MsgType, body []byte) ([]byte, error) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() {
		err := c.register(server)
		if err != nil {
			server.Close() // as acceptLoop does for a refused joiner
		}
		done <- err
	}()
	if err := writeFrame(client, typ, body); err != nil {
		t.Fatalf("write %v: %v", typ, err)
	}
	welcome, _ := expectFrame(client, MsgWelcome, handshakeLimit)
	return welcome, <-done
}

// TestSlotConnectsOnlyOnceWelcomed pins the coordinator side of the
// registration boundary: a slot is invisible to selection and AwaitRoster
// until its Welcome has been delivered, so no round can interleave with the
// handshake on that connection. net.Pipe writes block until read, which
// holds register inside the Welcome write for as long as the test likes.
func TestSlotConnectsOnlyOnceWelcomed(t *testing.T) {
	c := &Coordinator{}
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan error, 1)
	go func() { done <- c.register(server) }()
	if err := writeFrame(client, MsgJoin, encodeJoin(10)); err != nil {
		t.Fatalf("join: %v", err)
	}
	for slots := 0; slots == 0; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		slots = len(c.clients)
		c.mu.Unlock()
	}
	if n := connected(c); n != 0 {
		t.Errorf("connected = %d with the Welcome still undelivered, want 0", n)
	}
	if _, err := expectFrame(client, MsgWelcome, handshakeLimit); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("register: %v", err)
	}
	if n := connected(c); n != 1 {
		t.Errorf("connected = %d after the Welcome, want 1", n)
	}
}

// TestRegisterRejectsV1WithoutGhostSlot drives the coordinator's handshake
// with the retired v1, v2 and v3 Join and Rejoin bodies: all are refused by
// name, and none appends a roster slot, revives one, or disturbs the next id.
func TestRegisterRejectsV1WithoutGhostSlot(t *testing.T) {
	c := &Coordinator{}
	if welcome, err := pipeRegister(t, c, MsgJoin, encodeJoin(10)); err != nil || welcome == nil {
		t.Fatalf("v4 join: err %v, welcome %v", err, welcome)
	}
	c.mu.Lock()
	c.clients[0].connected = false // a dropped client a v1 Rejoin must not revive
	gen := c.clients[0].gen
	c.mu.Unlock()

	for _, tc := range []struct {
		name    string
		typ     MsgType
		body    []byte
		refusal string
	}{
		{"v1 join", MsgJoin, []byte{10, 0, 0, 0}, v1Refusal},
		{"v1 rejoin", MsgRejoin, []byte{0, 0, 0, 0, 10, 0, 0, 0}, v1Refusal},
		{"v2 join", MsgJoin, []byte{10, 0, 0, 0, 2}, v2Refusal},
		{"v2 rejoin", MsgRejoin, []byte{0, 0, 0, 0, 10, 0, 0, 0, 2}, v2Refusal},
		{"v3 join", MsgJoin, []byte{10, 0, 0, 0, 3}, v3Refusal},
		{"v3 rejoin", MsgRejoin, []byte{0, 0, 0, 0, 10, 0, 0, 0, 3}, v3Refusal},
	} {
		welcome, err := pipeRegister(t, c, tc.typ, tc.body)
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), tc.refusal) {
			t.Errorf("%s: err = %v, want ErrProtocol saying %q", tc.name, err, tc.refusal)
		}
		if welcome != nil {
			t.Errorf("%s: got a Welcome %v, want none", tc.name, welcome)
		}
		c.mu.Lock()
		if len(c.clients) != 1 || c.clients[0].gen != gen {
			t.Errorf("%s: roster len %d gen %d, want 1 and %d", tc.name, len(c.clients), c.clients[0].gen, gen)
		}
		c.mu.Unlock()
		if n := connected(c); n != 0 {
			t.Errorf("%s: Connected() = %d, want 0", tc.name, n)
		}
	}

	// The next well-formed Join — here from a future-version edge — takes
	// id 1 and is welcomed at the version this coordinator speaks.
	welcome, err := pipeRegister(t, c, MsgJoin, []byte{10, 0, 0, 0, 250})
	if err != nil {
		t.Fatalf("join after the refusals: %v", err)
	}
	if id, err := decodeWelcome(welcome); err != nil || id != 1 {
		t.Errorf("join after the refusals welcomed as (%d, %v), want id 1 at v%d", id, err, ProtoV4)
	}
}

func TestTrainRequestV2RoundTrip(t *testing.T) {
	m := ml.NewModel(3, 4, ml.Softmax)
	m.W.Set(1, 2, -2.5)
	m.B[0] = 0.75

	// Full-model v2 request.
	full := TrainRequest{Round: 6, Epochs: 3, LearningRate: 0.25, ReplyBits: ml.Quant8, BaseRound: 6}
	buf := appendTrainRequestHeader(nil, full)
	buf = m.AppendBinary(buf)
	back, body, err := decodeTrainRequest(buf)
	if err != nil {
		t.Fatalf("decode full v2: %v", err)
	}
	if back.Round != 6 || back.Epochs != 3 || back.LearningRate != 0.25 ||
		back.ReplyBits != ml.Quant8 || back.DownBits != 0 || back.BaseRound != 6 {
		t.Errorf("full v2 header lost: %+v", back)
	}
	var got ml.Model
	if err := got.UnmarshalBinaryReuse(body); err != nil {
		t.Fatalf("body: %v", err)
	}
	if got.ParamDistance(m) != 0 {
		t.Error("full v2 model lost in transit")
	}

	// Lossless delta requests: first order against the round-5 broadcast,
	// second order against rounds 5 and 4; with nothing to code against, or a
	// prediction that does not help, the body falls back to the full model
	// and the header says so.
	g6, g5, g4 := randomWireModel(3), randomWireModel(3), randomWireModel(3)
	mat.Scale(g5.W.RawData(), 1-1e-6)
	mat.Scale(g4.W.RawData(), 1-2e-6)
	for _, tc := range []struct {
		name      string
		pred      []*ml.Model
		wantBits  ml.QuantBits
		wantOrder int
		wantBase  int
	}{
		{"first-order", []*ml.Model{g5}, deltaBits, 1, 5},
		{"second-order", []*ml.Model{g5, g5, g4}, deltaBits, 2, 5},
		{"nothing-held", nil, 0, 0, 6},
		{"useless-prediction", []*ml.Model{randomWireModel(4)}, 0, 0, 6},
	} {
		payload := appendLosslessRequest([]byte{9}, TrainRequest{Round: 6, BaseRound: 5, Epochs: 3, LearningRate: 0.25}, g6, tc.pred...)[1:]
		req, body, err := decodeTrainRequest(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if req.Round != 6 || req.Epochs != 3 || req.DownBits != tc.wantBits || req.DownOrder != tc.wantOrder || req.BaseRound != tc.wantBase {
			t.Errorf("%s: header %+v, want bits %d order %d base %d", tc.name, req, tc.wantBits, tc.wantOrder, tc.wantBase)
		}
		var back ml.Model
		if tc.wantBits == 0 {
			err = back.UnmarshalBinaryReuse(body)
		} else {
			err = ml.ApplyDelta(&back, body, tc.pred...)
		}
		if err != nil || back.ParamDistance(g6) != 0 {
			t.Errorf("%s: body lost the model: %v", tc.name, err)
		}
		if len(body) > g6.EncodedSize() {
			t.Errorf("%s: body of %d bytes exceeds raw (%d)", tc.name, len(body), g6.EncodedSize())
		}
	}

	// Residual request against an earlier base round.
	res := TrainRequest{Round: 6, Epochs: 3, LearningRate: 0.25, DownBits: ml.Quant8, BaseRound: 5}
	buf2 := appendTrainRequestHeader(nil, res)
	buf2, err = ml.AppendQuantized(buf2, m, ml.Quant8)
	if err != nil {
		t.Fatalf("quantize: %v", err)
	}
	back2, body2, err := decodeTrainRequest(buf2)
	if err != nil {
		t.Fatalf("decode residual v2: %v", err)
	}
	if back2.DownBits != ml.Quant8 || back2.BaseRound != 5 {
		t.Errorf("residual header lost: %+v", back2)
	}
	var resid ml.Model
	if err := resid.DequantizeInto(body2); err != nil {
		t.Fatalf("residual body: %v", err)
	}
	bound := ml.MaxQuantError(m, ml.Quant8) * 1.01
	if d := resid.ParamDistance(m); d > bound*float64(m.ParamCount()) {
		t.Errorf("residual reconstruction distance %v too large", d)
	}
}

// TestDecodeTrainRequestV2Errors is the malformed-frame table: every corrupt
// header shape a peer could send must produce a deterministic ErrProtocol.
func TestDecodeTrainRequestV2Errors(t *testing.T) {
	m := ml.NewModel(2, 2, ml.Softmax)
	good := appendTrainRequestHeader(nil, TrainRequest{Round: 3, BaseRound: 3, Epochs: 1, LearningRate: 0.1})
	good = m.AppendBinary(good)

	corrupt := func(mutate func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated-header", good[:trainReqHeaderLen-1]},
		{"header-only-no-body", good[:trainReqHeaderLen]},
		{"bad-reply-bits", corrupt(func(b []byte) []byte { b[16] = 12; return b })},
		{"bad-down-bits", corrupt(func(b []byte) []byte { b[20] = 7; return b })},
		// Byte 21 is a delta body's predictor order: zero for everything
		// else, 1 or 2 for a delta, which needs a round to be ahead of (and,
		// second order, a round before that one).
		{"order-without-delta", corrupt(func(b []byte) []byte { b[21] = 1; return b })},
		{"delta-without-order", corrupt(func(b []byte) []byte { b[20] = byte(deltaBits); return b })},
		{"delta-order-3", corrupt(func(b []byte) []byte { b[20], b[21] = byte(deltaBits), 3; return b })},
		{"delta-future-base", corrupt(func(b []byte) []byte { b[20], b[21], b[22] = byte(deltaBits), 1, 9; return b })},
		{"second-order-against-round-0", corrupt(func(b []byte) []byte { b[20], b[21], b[22] = byte(deltaBits), 2, 0; return b })},
		// Full-model requests must self-describe: BaseRound == Round.
		{"full-base-mismatch", corrupt(func(b []byte) []byte { b[22] = 99; return b })},
		// Residual from the future: BaseRound > Round.
		{"residual-future-base", corrupt(func(b []byte) []byte {
			b[20] = byte(ml.Quant8)
			b[22] = 9 // round is 3
			return b
		})},
	}
	for _, tc := range cases {
		_, _, err := decodeTrainRequest(tc.payload)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", tc.name, err)
		}
	}

	// A truncated residual body passes the header but must fail the model
	// decode on the edge (DequantizeInto), not panic.
	res := appendTrainRequestHeader(nil, TrainRequest{Round: 3, BaseRound: 2, DownBits: ml.Quant8, Epochs: 1, LearningRate: 0.1})
	full, err := ml.AppendQuantized(res, m, ml.Quant8)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:len(full)-3]
	if _, body, err := decodeTrainRequest(truncated); err == nil {
		var scratch ml.Model
		if err := scratch.DequantizeInto(body); err == nil {
			t.Error("truncated residual body must fail to decode")
		}
	}
}

// TestEdgeRejectsProtocolMismatches drives the edge-side handshake guard: the
// only Welcome an edge accepts carries ProtoV4, so a pre-v2 coordinator's
// version-less body and an unrequested upgrade both fail the dial.
func TestEdgeRejectsProtocolMismatches(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for _, tc := range []struct {
		name    string
		welcome []byte
		wantV1  bool
	}{
		{"v1 4-byte welcome", []byte{0, 0, 0, 0}, true},
		{"welcome above advertised", []byte{0, 0, 0, 0, ProtoV4 + 1}, false},
	} {
		dial := func(string, time.Duration) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				if _, err := expectFrame(server, MsgJoin, handshakeLimit); err != nil {
					return
				}
				_ = writeFrame(server, MsgWelcome, tc.welcome)
			}()
			return client, nil
		}
		_, err := dialAs(EdgeConfig{Addr: "scripted", Shard: d, Dial: dial, DialTimeout: 2 * time.Second}, -1)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s = %v, want ErrProtocol", tc.name, err)
		} else if tc.wantV1 && !strings.Contains(err.Error(), v1Refusal) {
			t.Errorf("%s = %v, want it to name the retired v1", tc.name, err)
		}
	}
}

// closedAfterWelcome makes the race TestEdgeRegisteredOnceWelcomed is about
// deterministic: clearing the handshake deadline fails the way net.Pipe's
// SetDeadline does once the peer has closed, whoever gets there first.
type closedAfterWelcome struct{ net.Conn }

func (c closedAfterWelcome) SetDeadline(t time.Time) error {
	if t.IsZero() {
		return io.ErrClosedPipe
	}
	return c.Conn.SetDeadline(t)
}

// TestEdgeRegisteredOnceWelcomed pins the registration boundary: a validated
// Welcome means the coordinator holds a slot, so when the scripted
// coordinator closes right after it the dial still yields a registered edge,
// and the reconnect re-registers with MsgRejoin under the welcomed id
// instead of leaving a ghost slot behind a second Join.
func TestEdgeRegisteredOnceWelcomed(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	type reg struct {
		typ  MsgType
		body []byte
	}
	const welcomedID = 5
	regs := make(chan reg, 2) // one send per scripted connection
	attempt := 0
	dial := func(string, time.Duration) (net.Conn, error) {
		attempt++
		first := attempt == 1
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			typ, body, err := readFrame(server, handshakeLimit)
			if err != nil {
				return
			}
			regs <- reg{typ, append([]byte(nil), body...)}
			if err := writeFrame(server, MsgWelcome, encodeWelcome(welcomedID)); err != nil {
				return
			}
			if !first {
				_ = writeFrame(server, MsgShutdown, nil)
			}
		}()
		if first {
			return closedAfterWelcome{client}, nil
		}
		return client, nil
	}
	var sleeps int
	err = RunEdgeServer(context.Background(), EdgeConfig{
		Addr: "scripted", Shard: d, Dial: dial,
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 2},
		sleep: func(context.Context, time.Duration) error { sleeps++; return nil },
	})
	if err != nil {
		t.Fatalf("RunEdgeServer: %v", err)
	}
	if attempt != 2 || sleeps != 0 {
		t.Errorf("%d dials and %d backoffs, want 2 and 0 (a welcomed dial is not a failure)", attempt, sleeps)
	}
	if first := <-regs; first.typ != MsgJoin {
		t.Errorf("first registration = %v, want %v", first.typ, MsgJoin)
	}
	second := <-regs
	if second.typ != MsgRejoin {
		t.Fatalf("registration after the lost connection = %v, want %v", second.typ, MsgRejoin)
	}
	if id, _, err := decodeRejoin(second.body); err != nil || id != welcomedID {
		t.Errorf("rejoined as (%d, %v), want the welcomed id %d", id, err, welcomedID)
	}
}

// --- interop and bit-identity ------------------------------------------------

// clusterFixture is the data and hyper-parameters residualCluster trains on,
// shared with the in-test reference so the two cannot drift apart. Edge i
// trains shards[i] with seed i+1.
func clusterFixture(t *testing.T, servers int) (shards []*dataset.Dataset, test *dataset.Dataset, cfg fl.Config) {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 400
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err = dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	return shards, test, fl.Config{
		ClientsPerRound: servers, LocalEpochs: 3, LearningRate: 0.5, Decay: 0.99, Seed: 1,
	}
}

// residualCluster spins up a coordinator with the given downlink codec plus
// `servers` edges, runs `rounds` rounds, and returns the coordinator (still
// up; t.Cleanup shuts it down) and history.
func residualCluster(t *testing.T, servers int, downBits ml.QuantBits, rounds int, stop fl.StopCondition) (*Coordinator, []fl.RoundRecord) {
	t.Helper()
	shards, test, flCfg := clusterFixture(t, servers)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:                flCfg,
		Classes:           test.Classes,
		Features:          test.Dim(),
		RoundTimeout:      30 * time.Second,
		JoinTimeout:       10 * time.Second,
		DownloadQuantBits: downBits,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Shutdown)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	// Join strictly in shard order so slot ids — and with them selection and
	// aggregation-sum order — are a function of the seed alone. Bit-identity
	// against the sequential reference needs this; a racing join would only
	// reorder floating-point sums.
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			})
		}(i)
		if err := coord.AwaitRoster(ctx, i+1, 30*time.Second); err != nil {
			t.Fatalf("edge %d join: %v", i, err)
		}
	}
	if err := coord.WaitForClients(ctx, servers); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	if stop == nil {
		stop = fl.MaxRounds(rounds)
	}
	history, err := runRounds(ctx, coord, stop)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()
	return coord, history
}

// TestLosslessWireMatchesDirectArithmetic pins that the lossless wire is
// transparent: handshake, request framing, pooled buffers and reply decode
// change no bit of the training arithmetic, at several fleet sizes including
// GOMAXPROCS.
func TestLosslessWireMatchesDirectArithmetic(t *testing.T) {
	const rounds = 3
	sizes := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		sizes = append(sizes, p)
	}
	for _, servers := range sizes {
		coord, hist := residualCluster(t, servers, 0, rounds, nil)
		want, losses, accs := directFedAvg(t, servers, servers, rounds, -1)
		if d := coord.Global().ParamDistance(want); d != 0 {
			t.Errorf("servers=%d: wire run diverged from direct arithmetic by %v, want bit-identical", servers, d)
		}
		if len(hist) != rounds {
			t.Fatalf("servers=%d: %d rounds, want %d", servers, len(hist), rounds)
		}
		for r := range hist {
			if hist[r].TrainLoss != losses[r] || hist[r].TestAccuracy != accs[r] {
				t.Errorf("servers=%d round %d: wire (loss %v acc %v) vs direct (loss %v acc %v)",
					servers, r, hist[r].TrainLoss, hist[r].TestAccuracy, losses[r], accs[r])
			}
		}
	}
}

// TestResidualDownlinkShrinksBytesAndConverges is the headline acceptance
// test: an 8-bit residual downlink cuts warm-round downlink bytes at least
// 4x against the lossless run, while still training to 0.9 test accuracy.
func TestResidualDownlinkShrinksBytesAndConverges(t *testing.T) {
	const servers = 4
	stop := func(h []fl.RoundRecord) bool {
		return fl.TargetAccuracy(0.9)(h) || fl.MaxRounds(60)(h)
	}
	_, full := residualCluster(t, servers, 0, 0, stop)
	_, quant := residualCluster(t, servers, ml.Quant8, 0, stop)

	if acc := quant[len(quant)-1].TestAccuracy; acc < 0.9 {
		t.Errorf("quantized downlink final accuracy = %v, want >= 0.9 within %d rounds", acc, len(quant))
	}
	if len(full) < 2 || len(quant) < 2 {
		t.Fatalf("need at least 2 rounds, got full=%d quant=%d", len(full), len(quant))
	}
	// Round 0 is always a full broadcast (no base yet); warm rounds carry
	// residuals. Compare per-round downlink volume from round 1 on.
	fullPerRound := full[1].DownlinkBytes
	quantPerRound := quant[1].DownlinkBytes
	if quantPerRound*4 > fullPerRound {
		t.Errorf("warm-round downlink %dB (quantized) vs %dB (full) — want >= 4x reduction",
			quantPerRound, fullPerRound)
	}
	// Round 0 must match: both runs broadcast the full model.
	if quant[0].DownlinkBytes != full[0].DownlinkBytes {
		t.Errorf("cold-round downlink differs: %dB vs %dB", quant[0].DownlinkBytes, full[0].DownlinkBytes)
	}
}

// TestResidualSurvivesRejoin forces a mid-run reconnect under a quantized
// downlink: the rejoined connection must fall back to a full broadcast (its
// residual base is gone) and training must continue unperturbed.
func TestResidualSurvivesRejoin(t *testing.T) {
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 300
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: 2, LocalEpochs: 2, LearningRate: 0.3, Decay: 0.99, Seed: 1,
		},
		Classes:           train.Classes,
		Features:          train.Dim(),
		RoundTimeout:      30 * time.Second,
		JoinTimeout:       10 * time.Second,
		RejoinGrace:       10 * time.Second,
		DownloadQuantBits: ml.Quant8,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()

	edgeCtx, stopEdges := context.WithCancel(context.Background())
	defer stopEdges()
	runEdge := func(i int) {
		_ = RunEdgeServer(edgeCtx, EdgeConfig{
			Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Multiplier: 2},
		})
	}
	go runEdge(0)
	go runEdge(1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, 2); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	// Two rounds to establish residual state on both clients.
	for i := 0; i < 2; i++ {
		if _, err := coord.Round(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	// Kill client 0's connection between rounds; its retry loop rejoins.
	coord.mu.Lock()
	conn0 := coord.clients[0].conn
	coord.mu.Unlock()
	conn0.Close()
	if err := coord.AwaitRoster(ctx, 2, 10*time.Second); err != nil {
		t.Fatalf("AwaitRoster after kill: %v", err)
	}
	// The next rounds must succeed: round 3 re-sends the full model to the
	// rejoined client, later rounds go back to residuals.
	var recs []fl.RoundRecord
	for i := 0; i < 3; i++ {
		rec, err := coord.Round(ctx)
		if err != nil {
			t.Fatalf("post-rejoin round %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	// Final round should be back on residuals for both clients: strictly
	// fewer downlink bytes than the post-rejoin round that carried one full
	// model.
	if recs[2].DownlinkBytes >= recs[0].DownlinkBytes {
		t.Errorf("residuals did not resume after rejoin: %dB then %dB",
			recs[0].DownlinkBytes, recs[2].DownlinkBytes)
	}
}
