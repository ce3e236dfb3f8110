package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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

// maxHandshakes caps the handshakes in flight at once: past it the accept
// loop waits for one to finish before it accepts the next connection, so a
// flood of silent dialers holds at most this many goroutines and sockets.
const maxHandshakes = 64

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
	// (ml.Quant8 or ml.Quant16), cutting the e^U upload energy roughly
	// 64/bits-fold at a bounded accuracy cost. 0 = lossless: every bit of the
	// local model arrives, delta-coded against what the connection already
	// holds from its second exchange on.
	UploadQuantBits ml.QuantBits
	// DownloadQuantBits broadcasts the global model as a quantized residual
	// against the last broadcast each client acknowledged (ml.Quant8 or
	// ml.Quant16). Coordinator-side error feedback subtracts each round's
	// quantization error from the next residual, so the error never
	// accumulates. 0 = lossless, which is bit-identical to in-process FedAvg:
	// the same residual, delta-coded instead of quantized. Either way a
	// connection that holds nothing yet (fresh joins, rejoins) receives the
	// full float64 model.
	DownloadQuantBits ml.QuantBits
}

// snapshot is a global model as a connection holds it: the coordinator's own
// model of one round, shared by every connection that round's request reached
// losslessly, or — under a quantized downlink — one connection's private
// reconstruction of it. It is immutable from the moment it is published; refs,
// guarded by the coordinator mutex, counts its holders, and the last release
// recycles the storage as a later round's aggregation or staging target. A
// round may therefore keep reading, unlocked, the snapshots it captured when
// it began: whatever is released meanwhile is next written by a later round.
type snapshot struct {
	round int
	m     *ml.Model
	refs  int
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
	// base and prev are the global models of the last two requests delivered
	// on this connection, exactly as its edge reconstructed them (under a
	// quantized downlink they carry the client's rounding, not the
	// coordinator's ideal: error feedback) — what the next request is coded
	// against. upRound is the round whose reply was last decoded, losslessly
	// and completely, into repModel (−1: none), which makes repModel and base
	// the prediction of the next reply. All three follow the wire, not the
	// round's outcome; they are guarded by the coordinator mutex and dropped
	// whenever the connection is (a fresh one holds nothing: its first
	// request is a full model).
	base, prev *snapshot
	upRound    int
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
	repLimit int // largest reply payload a model of the global's shape can need
	test     *dataset.Dataset
	testEval *ml.Evaluator // owns the batched-forward scratch reused across rounds
	rng      *mat.RNG
	// handshake, when set, replaces handshakeTimeout (tests shorten it).
	handshake time.Duration

	// Round-scratch models, reused across rounds so warm rounds stay off
	// the allocator: spare is the aggregation target (published as the next
	// global at commit), resid and recon build the residual downlink and its
	// error-feedback reconstruction. All are touched only by the single
	// active Round call.
	spare *snapshot
	resid *ml.Model
	recon *ml.Model
	// Round-scratch slices, reused the same way: the connected slot ids
	// selection draws from, the round's targets, its pooled request frames
	// and the survivors' updates.
	alive   []int
	targets []target
	frames  []*[]byte
	updates []fl.Update

	mu sync.Mutex
	// global is the current round's model, replaced (never written) at
	// commit; free holds the snapshots nobody refers to any more.
	global  *snapshot
	free    []*snapshot
	clients []*clientConn
	// changed is closed, and forgotten, whenever a slot connects or the
	// coordinator goes down — the two events awaitConnected and awaitRejoin
	// sleep on. Nil until somebody waits.
	changed   chan struct{}
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
	if cfg.FL.LocalEpochs < 1 || cfg.FL.ClientsPerRound < 1 {
		return nil, fmt.Errorf("fl config %+v: %w", cfg.FL, ErrCoordinator)
	}
	if err := cfg.FL.ValidateSchedule(); err != nil {
		return nil, fmt.Errorf("fl config: %v: %w", err, ErrCoordinator)
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
		global:   &snapshot{m: global, refs: 1},
		spare:    &snapshot{m: global.Clone()},
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
	return c.global.m.Clone()
}

// takeFree returns a snapshot nobody holds, for a round to fill (mutex held).
func (c *Coordinator) takeFree() *snapshot {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	return &snapshot{m: c.global.m.Clone()}
}

// release gives up one holder's reference to s (mutex held; nil is nothing).
func (c *Coordinator) release(s *snapshot) {
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		c.free = append(c.free, s)
	}
}

// dropLink forgets what cl's connection held: it is gone, and whatever takes
// its place starts from a full model (mutex held).
func (c *Coordinator) dropLink(cl *clientConn) {
	c.release(cl.base)
	c.release(cl.prev)
	cl.base, cl.prev, cl.upRound = nil, nil, -1
}

// notify wakes everything sleeping on the roster (mutex held).
func (c *Coordinator) notify() {
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// rosterChanged returns the channel the next notify closes (mutex held).
func (c *Coordinator) rosterChanged() <-chan struct{} {
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return c.changed
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
	return c.connectedLocked()
}

func (c *Coordinator) connectedLocked() int {
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
	slots := make(chan struct{}, maxHandshakes)
	for {
		slots <- struct{}{}
		conn, err := c.ln.Accept()
		if err != nil {
			// Listener closed (Shutdown) or fatally broken: stop.
			c.mu.Lock()
			c.accepting = false
			c.mu.Unlock()
			return
		}
		// Handshakes run concurrently so one stalled joiner cannot block
		// the fleet; each is bounded by the handshake timeout, and at most
		// maxHandshakes run at once.
		go func() {
			defer func() { <-slots }()
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
	timeout := handshakeTimeout
	if c.handshake > 0 {
		timeout = c.handshake
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
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
			id: id, conn: conn, samples: int(samples), upRound: -1,
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
		c.dropLink(cl)
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
		c.notify()
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
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		c.mu.Lock()
		connected, down, changed := c.connectedLocked(), c.down, c.rosterChanged()
		c.mu.Unlock()
		switch {
		case connected >= n:
			return nil
		case down:
			return fmt.Errorf("%s: coordinator shut down: %w", what, ErrCoordinator)
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return fmt.Errorf("%s: %w", what, ctx.Err())
		case <-expired.C:
			return fmt.Errorf("%s: %d of %d connected at timeout: %w", what, connected, n, ErrCoordinator)
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
	expired := time.NewTimer(min(c.cfg.RejoinGrace, time.Until(deadline)))
	defer expired.Stop()
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
		changed := c.rosterChanged()
		c.mu.Unlock()
		select {
		case <-changed:
		case <-expired.C:
			return nil, 0, false
		}
	}
}

// buildFrame seals a pooled MsgTrainRequest frame carrying the global model
// losslessly: as a delta against pred (see appendLossless), models the
// target connections hold from the broadcast of round baseRound, else — no
// pred: a fresh connection — as the full float64 model. The caller owns the
// returned buffer (freeFrame when done); the sealed image aliases it. The
// global is only read, so this needs no lock.
func (r *round) buildFrame(baseRound int, pred ...*ml.Model) (*[]byte, []byte, error) {
	req := r.req
	req.BaseRound = baseRound
	bp := newFrame()
	*bp = appendLosslessRequest(*bp, req, r.global.m, pred...)
	frame, err := finishFrame(bp, MsgTrainRequest)
	if err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
}

// buildResidualFrame seals a pooled request frame carrying the global model
// as a quantized residual against tg.base, and stages the client's exact
// post-apply reconstruction as tg.next (error feedback: the next residual is
// computed against what the client actually holds, rounding included, so
// quantization error cannot accumulate). Called with the coordinator mutex
// held.
func (r *round) buildResidualFrame(tg *target, bits ml.QuantBits) (*[]byte, []byte, error) {
	c := r.c
	if c.resid == nil {
		c.resid = r.global.m.Clone()
	} else if err := c.resid.CopyFrom(r.global.m); err != nil {
		return nil, nil, err
	}
	if err := c.resid.AddScaled(-1, tg.base.m); err != nil {
		return nil, nil, err
	}
	req := r.req
	req.DownBits = bits
	req.BaseRound = tg.base.round
	bp := newFrame()
	*bp = appendTrainRequestHeader(*bp, req)
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
	staged := c.takeFree()
	staged.round, staged.refs = r.t, 1
	tg.next, tg.staged = staged, true // from here the round's release gives it back
	if err := staged.m.CopyFrom(tg.base.m); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	if err := staged.m.AddScaled(1, c.recon); err != nil {
		freeFrame(bp)
		return nil, nil, err
	}
	return bp, frame, nil
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
	c.notify()
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
