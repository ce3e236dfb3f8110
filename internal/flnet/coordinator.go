package flnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// ErrCoordinator is returned (wrapped) for coordinator-side failures.
var ErrCoordinator = errors.New("flnet: coordinator error")

// handshakeTimeout bounds one Join/Rejoin + Welcome exchange.
const handshakeTimeout = 10 * time.Second

// CoordinatorConfig configures a networked training run. The federated
// hyper-parameters reuse fl.Config.
type CoordinatorConfig struct {
	// FL carries K, E, learning rate, decay and seed. BatchSize is applied
	// by the edge servers locally.
	FL fl.Config
	// Classes and Features size the global model.
	Classes, Features int
	// RoundTimeout bounds one full round trip (send request + local
	// training + receive reply) per client. Zero selects 2 minutes.
	RoundTimeout time.Duration
	// JoinTimeout bounds the wait for the expected number of clients.
	// Zero selects 1 minute.
	JoinTimeout time.Duration
	// MinReplies enables straggler/fault tolerance: a round succeeds as
	// long as at least this many of the K selected clients reply before
	// the timeout; the failed clients are marked disconnected (they may
	// rejoin later) and the aggregation proceeds over the survivors. Zero
	// requires all K replies (the paper's synchronous setting).
	MinReplies int
	// RejoinGrace, when > 0, lets a round repair itself: a selected client
	// whose connection fails mid-round is given this long to re-register,
	// after which the round's request is re-sent on the fresh connection
	// (repeatedly if needed, within the round timeout). Only when no
	// rejoin arrives inside the window is the client declared dropped.
	// This makes round outcomes independent of how reconnect latency
	// races the round boundary. Zero fails clients immediately.
	RejoinGrace time.Duration
	// UploadQuantBits asks clients to quantize their uploaded models
	// (ml.Quant8 or ml.Quant16; 0 = full precision), cutting the e^U
	// upload energy roughly 64/bits-fold at a bounded accuracy cost.
	UploadQuantBits ml.QuantBits
	// DownloadQuantBits broadcasts the global model as a quantized residual
	// against the last broadcast each client acknowledged (ml.Quant8 or
	// ml.Quant16; 0 = full precision, which is bit-identical to in-process
	// FedAvg). Coordinator-side error feedback subtracts each round's
	// quantization error from the next residual, so the error never
	// accumulates. Clients whose downlink state is unknown (fresh joins,
	// rejoins) receive the full model.
	DownloadQuantBits ml.QuantBits
}

// clientConn is one roster slot. A slot is created by MsgJoin and lives for
// the whole run; a client that fails mid-round is marked disconnected and
// its slot is revived in place when the client re-registers with MsgRejoin.
type clientConn struct {
	id      int
	conn    net.Conn
	samples int
	// connected marks a slot with a live connection; disconnected slots
	// are skipped by selection until they rejoin.
	connected bool
	// gen counts (re-)registrations of this slot. Round snapshots it so a
	// failure observed on a stale connection cannot mark a freshly
	// rejoined client disconnected.
	gen int
	// lastSent is the global model exactly as this client's connection
	// last reconstructed it (error feedback: quantized residuals are
	// dequantized back, so lastSent carries the client's rounding, not the
	// coordinator's ideal). lastRound is the round of that broadcast.
	// pending stages the candidate successor while a round is in flight;
	// both are guarded by the coordinator mutex and reset on rejoin, since
	// a fresh connection holds no downlink state. Nil = next send is full.
	lastSent  *ml.Model
	pending   *ml.Model
	lastRound int
	// readBuf and repModel are the slot's reply-decode scratch, touched
	// only by the active round's goroutine for this slot (rounds are
	// serial, and each round selects a client at most once).
	readBuf  []byte
	repModel *ml.Model
}

// Coordinator is the networked FedAvg coordinator: it owns the global model,
// accepts edge-server registrations (and re-registrations, at any point of
// the run), and drives synchronous rounds that tolerate mid-round client
// failures.
type Coordinator struct {
	cfg      CoordinatorConfig
	ln       net.Listener
	global   *ml.Model
	repLimit int // largest reply payload a model of the global's shape can need
	test     *dataset.Dataset
	testEval *ml.Evaluator // owns the batched-forward scratch reused across rounds
	rng      *mat.RNG

	// Round-scratch models, reused across rounds so warm rounds stay off
	// the allocator: snap holds the round's global snapshot, spare is the
	// aggregation target (swapped with global at commit), resid and recon
	// build the residual downlink and its error-feedback reconstruction.
	// All are touched only by the single active Round call.
	snap  *ml.Model
	spare *ml.Model
	resid *ml.Model
	recon *ml.Model

	mu        sync.Mutex
	clients   []*clientConn
	round     int
	history   []fl.RoundRecord
	rejoins   int // re-registrations since the last completed round
	accepting bool
	down      bool
	roundObs  fl.RoundObserver
	sampleMem bool
}

// NewCoordinator wraps an already-open listener. The caller keeps ownership
// of the listener's lifetime; Close shuts down both.
func NewCoordinator(cfg CoordinatorConfig, ln net.Listener, test *dataset.Dataset) (*Coordinator, error) {
	if cfg.Classes <= 0 || cfg.Features <= 0 {
		return nil, fmt.Errorf("model shape %dx%d: %w", cfg.Classes, cfg.Features, ErrCoordinator)
	}
	if cfg.FL.LocalEpochs < 1 || cfg.FL.ClientsPerRound < 1 || cfg.FL.LearningRate <= 0 {
		return nil, fmt.Errorf("fl config %+v: %w", cfg.FL, ErrCoordinator)
	}
	switch cfg.UploadQuantBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return nil, fmt.Errorf("upload quant bits %d: %w", cfg.UploadQuantBits, ErrCoordinator)
	}
	switch cfg.DownloadQuantBits {
	case 0, ml.Quant8, ml.Quant16:
	default:
		return nil, fmt.Errorf("download quant bits %d: %w", cfg.DownloadQuantBits, ErrCoordinator)
	}
	if cfg.RoundTimeout <= 0 {
		cfg.RoundTimeout = 2 * time.Minute
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = time.Minute
	}
	act := cfg.FL.Activation
	if act == 0 {
		act = ml.Softmax
	}
	global := ml.NewModel(cfg.Classes, cfg.Features, act)
	return &Coordinator{
		cfg:      cfg,
		ln:       ln,
		global:   global,
		repLimit: trainRepHeaderLen + modelBodyLimit(global),
		test:     test,
		testEval: ml.NewEvaluator(1),
		rng:      mat.NewRNG(cfg.FL.Seed),
	}, nil
}

// Addr returns the listener address (useful with ":0" test listeners).
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Global returns a copy of the current global model. (A copy, because the
// coordinator recycles parameter storage across rounds; the returned model
// stays stable however many rounds run afterwards.)
func (c *Coordinator) Global() *ml.Model {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.global.Clone()
}

// History returns the completed round records.
func (c *Coordinator) History() []fl.RoundRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]fl.RoundRecord, len(c.history))
	copy(out, c.history)
	return out
}

// SetRoundObserver attaches (or, with nil, detaches) a per-round
// observability sink. Networked rounds report the paper-phase timings with
// PhaseTrain covering the full request/reply exchange (local training plus
// both network legs), and fill the Dropped/Rejoins/Retries fault telemetry.
// Safe to call between rounds; a round in flight keeps the observer it
// started with.
func (c *Coordinator) SetRoundObserver(o fl.RoundObserver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roundObs = o
}

// SetMemSampling toggles per-round memstats sampling for observed rounds.
func (c *Coordinator) SetMemSampling(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sampleMem = on
}

// Connected returns how many roster slots currently hold a live connection.
func (c *Coordinator) Connected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, cl := range c.clients {
		if cl.connected {
			n++
		}
	}
	return n
}

// ensureAcceptLoop starts the background registration loop once. It runs
// until the listener closes, handling joins and mid-training rejoins alike.
func (c *Coordinator) ensureAcceptLoop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.accepting || c.down {
		return
	}
	c.accepting = true
	go c.acceptLoop()
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatally broken: stop.
			c.mu.Lock()
			c.accepting = false
			c.mu.Unlock()
			return
		}
		// Handshakes run concurrently so one stalled joiner cannot block
		// the fleet; each is bounded by handshakeTimeout.
		go func() {
			if err := c.register(conn); err != nil {
				// A broken joiner must not kill the run; drop it.
				conn.Close()
			}
		}()
	}
}

// register performs the Join/Welcome or Rejoin/Welcome handshake on a fresh
// connection. A body the codec refuses (malformed, or the retired v1 shape)
// fails before the roster is touched.
func (c *Coordinator) register(conn net.Conn) error {
	if err := conn.SetDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return fmt.Errorf("handshake deadline: %w", err)
	}
	t, payload, err := readFrame(conn, handshakeLimit)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	var id int
	switch t {
	case MsgJoin:
		samples, err := decodeJoin(payload)
		if err != nil {
			return fmt.Errorf("join body: %w", err)
		}
		c.mu.Lock()
		if c.down {
			c.mu.Unlock()
			return fmt.Errorf("join after shutdown: %w", ErrCoordinator)
		}
		id = len(c.clients)
		c.clients = append(c.clients, &clientConn{
			id: id, conn: conn, samples: int(samples),
		})
		c.mu.Unlock()
	case MsgRejoin:
		rid, samples, err := decodeRejoin(payload)
		if err != nil {
			return fmt.Errorf("rejoin body: %w", err)
		}
		c.mu.Lock()
		if c.down {
			c.mu.Unlock()
			return fmt.Errorf("rejoin after shutdown: %w", ErrCoordinator)
		}
		if int(rid) >= len(c.clients) {
			n := len(c.clients)
			c.mu.Unlock()
			return fmt.Errorf("rejoin of unknown client %d of %d: %w", rid, n, ErrProtocol)
		}
		cl := c.clients[rid]
		if cl.conn != nil && cl.conn != conn {
			cl.conn.Close()
		}
		cl.conn = conn
		cl.samples = int(samples)
		cl.connected = false
		cl.gen++
		// A fresh connection holds no downlink state: the next request
		// must carry the full model, and any in-flight pending
		// reconstruction is void.
		cl.lastSent = nil
		cl.pending = nil
		cl.lastRound = 0
		c.rejoins++
		id = int(rid)
		c.mu.Unlock()
	default:
		return fmt.Errorf("handshake got %v: %w", t, ErrProtocol)
	}
	// The slot stays disconnected — invisible to selection, AwaitRoster and
	// awaitRejoin — until the Welcome is delivered and the handshake deadline
	// cleared: a round that started on this conn any earlier would interleave
	// with the handshake (its byte counters absorbing the Welcome, its
	// deadline wiped by the clear below). On failure the slot simply stays
	// down, so counts stay truthful, and the client retries.
	if err := writeFrame(conn, MsgWelcome, encodeWelcome(uint32(id))); err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return fmt.Errorf("clear handshake deadline: %w", err)
	}
	c.mu.Lock()
	if id < len(c.clients) && c.clients[id].conn == conn {
		c.clients[id].connected = true
	}
	c.mu.Unlock()
	return nil
}

// WaitForClients accepts registrations until n edge servers have joined or
// the context/join timeout expires. Registration keeps running in the
// background afterwards, so clients can rejoin mid-training.
func (c *Coordinator) WaitForClients(ctx context.Context, n int) error {
	if n < c.cfg.FL.ClientsPerRound {
		return fmt.Errorf("waiting for %d clients but K=%d: %w", n, c.cfg.FL.ClientsPerRound, ErrCoordinator)
	}
	return c.awaitConnected(ctx, n, c.cfg.JoinTimeout, "wait for clients")
}

// AwaitRoster blocks until n clients are simultaneously connected, the
// timeout passes, or ctx ends. Callers use it between rounds to give
// dropped clients a window to reconnect before the next selection; a
// timeout is not fatal — the next round simply runs on the survivors.
func (c *Coordinator) AwaitRoster(ctx context.Context, n int, timeout time.Duration) error {
	return c.awaitConnected(ctx, n, timeout, "await roster")
}

func (c *Coordinator) awaitConnected(ctx context.Context, n int, timeout time.Duration, what string) error {
	c.ensureAcceptLoop()
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.Connected() >= n {
			return nil
		}
		c.mu.Lock()
		down := c.down
		c.mu.Unlock()
		if down {
			return fmt.Errorf("%s: coordinator shut down: %w", what, ErrCoordinator)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", what, ctx.Err())
		case <-tick.C:
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: %d of %d connected at timeout: %w",
					what, c.Connected(), n, ErrCoordinator)
			}
		}
	}
}

// awaitRejoin blocks until client id holds a registration newer than gen,
// the RejoinGrace window (capped by the round deadline) passes, or the
// coordinator shuts down. With RejoinGrace unset it declines immediately,
// preserving fail-fast rounds.
func (c *Coordinator) awaitRejoin(id, gen int, deadline time.Time) (net.Conn, int, bool) {
	if c.cfg.RejoinGrace <= 0 {
		return nil, 0, false
	}
	grace := time.Now().Add(c.cfg.RejoinGrace)
	if deadline.Before(grace) {
		grace = deadline
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		c.mu.Lock()
		if c.down || id >= len(c.clients) {
			c.mu.Unlock()
			return nil, 0, false
		}
		cl := c.clients[id]
		if cl.connected && cl.gen > gen {
			conn, g := cl.conn, cl.gen
			c.mu.Unlock()
			return conn, g, true
		}
		c.mu.Unlock()
		if time.Now().After(grace) {
			return nil, 0, false
		}
		<-tick.C
	}
}

// buildFullFrame seals a pooled MsgTrainRequest frame carrying the full
// snapshot model. The caller owns the returned buffer (freeFrame when done);
// the sealed image aliases it.
func (c *Coordinator) buildFullFrame(req TrainRequest) (*[]byte, []byte, error) {
	req.DownBits = 0
	req.BaseRound = req.Round
	bp := newFrame()
	*bp = appendTrainRequestV2Header(*bp, req)
	*bp = c.snap.AppendBinary(*bp)
	frame, err := finishFrame(bp, MsgTrainRequest)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
}

// buildResidualFrame seals a pooled request frame carrying the global
// snapshot as a quantized residual against cl.lastSent, and stages the
// client's exact post-apply reconstruction in cl.pending (error feedback:
// the next residual is computed against what the client actually holds,
// rounding included, so quantization error cannot accumulate). Called with
// the coordinator mutex held.
func (c *Coordinator) buildResidualFrame(cl *clientConn, req TrainRequest, bits ml.QuantBits) (*[]byte, []byte, error) {
	if c.resid == nil {
		c.resid = c.snap.Clone()
	} else if err := c.resid.CopyFrom(c.snap); err != nil {
		return nil, nil, err
	}
	if err := c.resid.AddScaled(-1, cl.lastSent); err != nil {
		return nil, nil, err
	}
	req.DownBits = bits
	req.BaseRound = cl.lastRound
	bp := newFrame()
	*bp = appendTrainRequestV2Header(*bp, req)
	bodyStart := len(*bp)
	out, err := ml.AppendQuantized(*bp, c.resid, bits)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	*bp = out
	frame, err := finishFrame(bp, MsgTrainRequest)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if c.recon == nil {
		c.recon = &ml.Model{}
	}
	if err := c.recon.DequantizeInto((*bp)[bodyStart:]); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if cl.pending == nil {
		cl.pending = cl.lastSent.Clone()
	} else if err := cl.pending.CopyFrom(cl.lastSent); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if err := cl.pending.AddScaled(1, c.recon); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
}

// Round runs one synchronous FedAvg round over the network. With MinReplies
// set, clients that fail mid-round are dropped from the round (and marked
// disconnected until they rejoin) while the aggregation proceeds over the
// quorum of survivors; the round record lists the casualties.
func (c *Coordinator) Round(ctx context.Context) (fl.RoundRecord, error) {
	type target struct {
		id       int
		gen      int
		conn     net.Conn
		cl       *clientConn
		frame    []byte // sealed request frame (shared between full-model targets)
		residual bool   // frame carries a quantized residual
	}
	c.mu.Lock()
	obs := c.roundObs
	var pc fl.PhaseClock
	if obs != nil {
		pc = fl.NewPhaseClock(c.sampleMem)
	}
	alive := make([]int, 0, len(c.clients))
	for _, cl := range c.clients {
		if cl.connected {
			alive = append(alive, cl.id)
		}
	}
	k := c.cfg.FL.ClientsPerRound
	round := c.round
	lr := c.cfg.FL.LearningRate
	if c.cfg.FL.Decay > 0 {
		lr *= math.Pow(c.cfg.FL.Decay, float64(round))
	}
	var targets []target
	if k <= len(alive) {
		for _, idx := range c.rng.Sample(len(alive), k) {
			cl := c.clients[alive[idx]]
			targets = append(targets, target{id: cl.id, gen: cl.gen, conn: cl.conn, cl: cl})
		}
	}
	if targets == nil {
		nAlive := len(alive)
		c.mu.Unlock()
		return fl.RoundRecord{}, fmt.Errorf("K=%d of %d alive clients: %w", k, nAlive, ErrCoordinator)
	}

	// Snapshot the global into reusable scratch; the round works off the
	// snapshot so registrations racing the round see a consistent model.
	if c.snap == nil {
		c.snap = c.global.Clone()
	} else if err := c.snap.CopyFrom(c.global); err != nil {
		c.mu.Unlock()
		return fl.RoundRecord{}, fmt.Errorf("round %d snapshot: %w", round, err)
	}

	// Build the request frames while still holding the mutex: residuals
	// read (and stage) per-client downlink state. Full-model targets share
	// one sealed frame; residual targets get their own. All pooled buffers
	// are released when the round returns.
	req := TrainRequest{
		Round:        round,
		Epochs:       c.cfg.FL.LocalEpochs,
		LearningRate: lr,
		ReplyBits:    c.cfg.UploadQuantBits,
		BaseRound:    round,
	}
	var frames []*[]byte
	defer func() {
		for _, bp := range frames {
			freeFrame(bp)
		}
	}()
	var full []byte
	downBits := c.cfg.DownloadQuantBits
	for i := range targets {
		tg := &targets[i]
		if downBits != 0 && tg.cl.lastSent != nil {
			bp, frame, err := c.buildResidualFrame(tg.cl, req, downBits)
			if err != nil {
				c.mu.Unlock()
				return fl.RoundRecord{}, fmt.Errorf("round %d residual for client %d: %w", round, tg.id, err)
			}
			frames = append(frames, bp)
			tg.frame, tg.residual = frame, true
			continue
		}
		if full == nil {
			bp, frame, err := c.buildFullFrame(req)
			if err != nil {
				c.mu.Unlock()
				return fl.RoundRecord{}, fmt.Errorf("round %d request: %w", round, err)
			}
			frames = append(frames, bp)
			full = frame
		}
		tg.frame = full
	}
	c.mu.Unlock()

	if obs != nil {
		pc.Lap(fl.PhaseSelect)
	}

	type outcome struct {
		slot    int
		rep     TrainReply
		retries int
		err     error
		// residual describes the frame of the last delivery attempt, which
		// is what the downlink-state commit must mirror.
		residual bool
	}
	results := make([]outcome, len(targets))
	// finalGen[slot] is the registration generation of the last connection
	// each goroutine actually used, so post-round failure marking cannot
	// clobber a connection it never touched. Each index is written only by
	// its own goroutine before wg.Wait.
	finalGen := make([]int, len(targets))
	// Downlink (coordinator→client) and uplink (client→coordinator) frame
	// bytes actually exchanged this round — the measured volume the radio
	// energy model prices.
	var txBytes, rxBytes atomic.Int64
	// Datagram transports additionally count packet attempts and
	// deliveries per direction (see dgramMetered); snapshot deltas around
	// each exchange accumulate here.
	var downAttempt, downDelivered, upAttempt, upDelivered atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(c.cfg.RoundTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	exchange := func(conn net.Conn, id int, frame []byte, cl *clientConn) (TrainReply, error) {
		if m, metered := conn.(dgramMetered); metered {
			// Delta the conn's lifetime counters around this exchange —
			// success or failure, the attempted bytes were spent.
			a0, d0, p0, r0 := m.DgramCounters()
			defer func() {
				a1, d1, p1, r1 := m.DgramCounters()
				downAttempt.Add(a1 - a0)
				downDelivered.Add(d1 - d0)
				upAttempt.Add(p1 - p0)
				upDelivered.Add(r1 - r0)
			}()
		}
		if err := conn.SetDeadline(deadline); err != nil {
			return TrainReply{}, fmt.Errorf("client %d deadline: %w", id, err)
		}
		if _, err := conn.Write(frame); err != nil {
			return TrainReply{}, fmt.Errorf("client %d request: %w", id, err)
		}
		txBytes.Add(int64(len(frame)))
		payload, err := expectFrameInto(conn, MsgTrainReply, &cl.readBuf, c.repLimit)
		if err != nil {
			return TrainReply{}, fmt.Errorf("client %d reply: %w", id, err)
		}
		rxBytes.Add(int64(frameHeaderLen + len(payload)))
		if cl.repModel == nil {
			cl.repModel = &ml.Model{}
		}
		rep, err := decodeTrainReplyInto(payload, cl.repModel)
		if err != nil {
			return TrainReply{}, fmt.Errorf("client %d reply body: %w", id, err)
		}
		if rep.Round != round {
			return TrainReply{}, fmt.Errorf("client %d replied for round %d, want %d: %w",
				id, rep.Round, round, ErrProtocol)
		}
		return rep, nil
	}
	for slot, tg := range targets {
		wg.Add(1)
		go func(slot int, tg target) {
			defer wg.Done()
			o := outcome{slot: slot, residual: tg.residual}
			conn, gen := tg.conn, tg.gen
			frame := tg.frame
			var retryBp *[]byte
			defer func() {
				if retryBp != nil {
					freeFrame(retryBp)
				}
			}()
			for {
				rep, err := exchange(conn, tg.id, frame, tg.cl)
				if err == nil {
					o.rep = rep
					break
				}
				// In-round repair: if the client re-registers within the
				// grace window, re-send this round's request on its fresh
				// connection instead of dropping it.
				nc, ng, ok := c.awaitRejoin(tg.id, gen, deadline)
				if !ok {
					o.err = err
					break
				}
				conn, gen = nc, ng
				o.retries++
				// The fresh connection lost all downlink state: re-send as a
				// full model.
				o.residual = false
				if retryBp != nil {
					freeFrame(retryBp)
					retryBp = nil
				}
				var ferr error
				retryBp, frame, ferr = c.buildFullFrame(req)
				if ferr != nil {
					o.err = ferr
					break
				}
			}
			finalGen[slot] = gen
			results[slot] = o
		}(slot, tg)
	}
	wg.Wait()

	// Commit per-client downlink state for every delivered request — before
	// quorum filtering, because delivery is a property of the wire, not of
	// the round's outcome: an edge that received this broadcast holds it as
	// its base whether or not the round later reaches quorum. The gen check
	// skips slots that re-registered after the delivery (register already
	// reset their state to full-send).
	c.mu.Lock()
	for slot, tg := range targets {
		o := results[slot]
		if o.err != nil || tg.id >= len(c.clients) {
			continue
		}
		cl := c.clients[tg.id]
		if cl.gen != finalGen[slot] {
			continue
		}
		if o.residual {
			// The staged reconstruction becomes the client's state; the
			// old state buffer is recycled as the next staging area.
			cl.lastSent, cl.pending = cl.pending, cl.lastSent
		} else if cl.lastSent == nil {
			cl.lastSent = c.snap.Clone()
		} else if err := cl.lastSent.CopyFrom(c.snap); err != nil {
			c.mu.Unlock()
			return fl.RoundRecord{}, fmt.Errorf("round %d downlink state: %w", round, err)
		}
		cl.lastRound = round
	}
	c.mu.Unlock()

	// Fault tolerance: with MinReplies set, drop failed clients from the
	// round and continue on the survivors; otherwise any failure aborts.
	var ok []outcome
	var dropped []int // slot indices
	for slot, r := range results {
		if r.err != nil {
			if c.cfg.MinReplies <= 0 {
				return fl.RoundRecord{}, fmt.Errorf("round %d: %w", round, r.err)
			}
			dropped = append(dropped, slot)
			continue
		}
		ok = append(ok, r)
	}
	if len(ok) == 0 || (c.cfg.MinReplies > 0 && len(ok) < c.cfg.MinReplies) {
		return fl.RoundRecord{}, fmt.Errorf("round %d: %d of %d replies (need %d): %w",
			round, len(ok), len(targets), c.cfg.MinReplies, ErrCoordinator)
	}
	if len(dropped) > 0 {
		c.mu.Lock()
		for _, slot := range dropped {
			id := targets[slot].id
			if id >= len(c.clients) {
				continue // roster was torn down by Shutdown
			}
			cl := c.clients[id]
			if cl.gen == finalGen[slot] {
				// Still the connection we failed on: mark it down. A
				// bumped gen means the client already rejoined — leave
				// the fresh connection alone.
				cl.connected = false
				cl.conn.Close()
			}
		}
		c.mu.Unlock()
	}
	if obs != nil {
		pc.Lap(fl.PhaseTrain)
	}

	// Aggregate per Eq. (2) over the survivors, into the spare model that
	// ping-pongs with the global at commit.
	if c.spare == nil {
		c.spare = ml.NewModel(c.cfg.Classes, c.cfg.Features, c.snap.Act)
	} else {
		c.spare.Zero()
		c.spare.Act = c.snap.Act
	}
	agg := c.spare
	for _, r := range ok {
		if err := agg.AddScaled(1/float64(len(ok)), r.rep.Model); err != nil {
			return fl.RoundRecord{}, fmt.Errorf("round %d aggregate: %w", round, err)
		}
	}
	if obs != nil {
		pc.Lap(fl.PhaseAggregate)
	}

	survivors := make([]int, len(ok))
	for i, r := range ok {
		survivors[i] = targets[r.slot].id
	}
	rec := fl.RoundRecord{
		Round:         round,
		Selected:      survivors,
		LearningRate:  lr,
		TestAccuracy:  math.NaN(),
		LocalLosses:   make([]float64, len(ok)),
		DownlinkBytes: txBytes.Load(),
		UplinkBytes:   rxBytes.Load(),

		DownlinkAttemptBytes:   downAttempt.Load(),
		DownlinkDeliveredBytes: downDelivered.Load(),
		UplinkAttemptBytes:     upAttempt.Load(),
		UplinkDeliveredBytes:   upDelivered.Load(),
	}
	for _, slot := range dropped {
		rec.Dropped = append(rec.Dropped, targets[slot].id)
	}
	for _, r := range ok {
		rec.Retries += r.retries
	}
	for _, slot := range dropped {
		rec.Retries += results[slot].retries
	}
	var lossSum float64
	for i, r := range ok {
		rec.LocalLosses[i] = r.rep.Loss
		lossSum += r.rep.Loss
	}
	// Without the raw shards, the coordinator reports the mean of the
	// clients' final local losses as its training-loss proxy.
	rec.TrainLoss = lossSum / float64(len(ok))
	if c.test != nil {
		// The evaluator reuses its chunk scratch round over round, keeping
		// warm rounds allocation-free where ml.Accuracy would allocate a
		// predictions slice and logits block per call. Bit-identical: hit
		// counts are integers, reduced in chunk order.
		acc, err := c.testEval.Accuracy(agg, c.test)
		if err != nil {
			return fl.RoundRecord{}, fmt.Errorf("round %d accuracy: %w", round, err)
		}
		rec.TestAccuracy = acc
	}
	if obs != nil {
		pc.Lap(fl.PhaseEvaluate)
	}

	c.mu.Lock()
	rec.Rejoins = c.rejoins
	c.rejoins = 0
	// Ping-pong: the aggregated spare becomes the global; the old global's
	// storage becomes next round's aggregation target.
	c.spare = c.global
	c.global = agg
	c.round++
	c.history = append(c.history, rec)
	c.mu.Unlock()
	if obs != nil {
		st := pc.Finish(rec.Round)
		st.Workers = len(targets)
		st.Dropped = len(rec.Dropped)
		st.Rejoins = rec.Rejoins
		st.Retries = rec.Retries
		st.DownlinkBytes = rec.DownlinkBytes
		st.UplinkBytes = rec.UplinkBytes
		st.DownlinkAttemptBytes = rec.DownlinkAttemptBytes
		st.DownlinkDeliveredBytes = rec.DownlinkDeliveredBytes
		st.UplinkAttemptBytes = rec.UplinkAttemptBytes
		st.UplinkDeliveredBytes = rec.UplinkDeliveredBytes
		obs.ObserveRound(st)
	}
	return rec, nil
}

// Run drives rounds until stop fires, then broadcasts shutdown.
func (c *Coordinator) Run(ctx context.Context, stop fl.StopCondition) ([]fl.RoundRecord, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrCoordinator)
	}
	for !stop(c.History()) {
		if err := ctx.Err(); err != nil {
			return c.History(), fmt.Errorf("run: %w", err)
		}
		if _, err := c.Round(ctx); err != nil {
			return c.History(), err
		}
	}
	c.Shutdown()
	return c.History(), nil
}

// Shutdown notifies every client and closes all connections plus the
// listener, which also stops the background registration loop. Safe to call
// multiple times and concurrently with rounds in flight (those rounds fail
// with connection errors).
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	c.down = true
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, cl := range clients {
		if cl.conn == nil {
			continue
		}
		// Best-effort farewell; the close that follows is the real signal.
		cl.conn.SetDeadline(time.Now().Add(2 * time.Second))
		if err := writeFrame(cl.conn, MsgShutdown, nil); err != nil {
			// The client may already be gone — closing below is enough.
			_ = err
		}
		cl.conn.Close()
	}
	c.ln.Close()
}
