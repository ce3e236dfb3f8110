package flnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// ErrEdge is returned (wrapped) for edge-server-side failures.
var ErrEdge = errors.New("flnet: edge server error")

// ErrConnLost is returned (wrapped) by Serve when the coordinator link
// fails mid-stream — EOF, an I/O error, or an unsynchronized/corrupt frame
// — i.e. for every condition a reconnect could repair. A clean MsgShutdown
// returns nil instead.
var ErrConnLost = errors.New("flnet: connection lost")

// ErrRetriesExhausted is returned (wrapped) by RunEdgeServer once the retry
// policy's attempt budget is spent without a usable connection.
var ErrRetriesExhausted = errors.New("flnet: retries exhausted")

// EdgeConfig configures one networked edge server.
type EdgeConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Shard is this server's local dataset.
	Shard *dataset.Dataset
	// BatchSize is the local mini-batch size; 0 selects full batch.
	BatchSize int
	// DialTimeout bounds each connection attempt. Zero selects 10 s.
	DialTimeout time.Duration
	// Seed drives local mini-batch shuffling and retry jitter.
	Seed uint64
	// Counters, when non-nil, accumulates frame-level TX/RX byte counts
	// across every connection this config opens (handshakes included) —
	// the measured transfer volume the radio energy model prices.
	Counters *WireCounters
	// Retry enables automatic redial plus re-registration after a
	// connection failure. The zero value keeps the legacy fail-fast
	// behaviour: one attempt, and an abrupt coordinator disappearance is
	// treated as shutdown.
	Retry RetryPolicy
	// Dial overrides the transport dialer — fault injection and tests hook
	// in here. Nil selects net.DialTimeout("tcp", addr, timeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)

	// sleep overrides the backoff pause between reconnect attempts so tests
	// can record the schedule without waiting it out. Nil selects sleepCtx.
	sleep func(ctx context.Context, d time.Duration) error
}

func (cfg EdgeConfig) dialer() func(string, time.Duration) (net.Conn, error) {
	if cfg.Dial != nil {
		return cfg.Dial
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	}
}

// EdgeServer is a connected, registered edge server.
type EdgeServer struct {
	cfg  EdgeConfig
	conn net.Conn
	id   int
	// roundsServed counts completed local-training requests.
	roundsServed int

	// Per-connection scratch for the zero-copy round path. readBuf is the
	// frame read scratch and reqLimit the largest request payload a model of
	// the shard's shape can need; resid is the dequantized-residual scratch;
	// sgd persists its shuffle scratch.
	readBuf  []byte
	reqLimit int
	resid    *ml.Model
	sgd      *ml.SGD

	// What this connection holds, mirrored by the coordinator's roster slot
	// (clientConn): base and prevBase are the global models of the last two
	// requests decoded, from rounds baseRound and prevRound — what the next
	// request is coded against; prevWork is the local model of the last
	// reply written, to round workRound, which with prevBase (the model it was
	// trained from) predicts the next one. A round of −1 means the model is
	// not held. Each pair ping-pongs: the successor is built in the older
	// buffer, and the state advances only once a request has been decoded, or
	// a reply written, completely. work is the model being trained (a copy of
	// base, so base stays the pristine broadcast).
	base, prevBase       *ml.Model
	baseRound, prevRound int
	work, prevWork       *ml.Model
	workRound            int
}

// Dial connects to the coordinator and performs the Join/Welcome handshake.
func Dial(cfg EdgeConfig) (*EdgeServer, error) {
	return dialAs(cfg, -1)
}

// dialAs performs one connection attempt. rejoinID < 0 registers fresh
// (MsgJoin); otherwise the edge re-registers its previous id (MsgRejoin)
// and the coordinator must echo it back.
func dialAs(cfg EdgeConfig, rejoinID int) (*EdgeServer, error) {
	if cfg.Shard == nil || cfg.Shard.Len() == 0 {
		return nil, fmt.Errorf("empty shard: %w", ErrEdge)
	}
	if err := cfg.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := cfg.dialer()(cfg.Addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", cfg.Addr, err)
	}
	id, err := handshake(conn, cfg, rejoinID, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// A validated Welcome means the coordinator holds a slot for this id, so
	// the edge is registered whatever the connection does next: a conn that
	// can no longer clear its handshake deadline (net.Pipe after the peer
	// closed) is already dead, and Serve reports that as ErrConnLost — after
	// which the caller rejoins under this id instead of joining as a ghost.
	_ = conn.SetDeadline(time.Time{})
	base := ml.NewModel(cfg.Shard.Classes, cfg.Shard.Dim(), ml.Softmax)
	return &EdgeServer{
		cfg: cfg, conn: conn, id: int(id),
		reqLimit: trainReqHeaderLen + modelBodyLimit(base),
		base:     base, baseRound: -1, prevRound: -1, workRound: -1,
	}, nil
}

// handshake registers on a fresh connection — MsgJoin, or MsgRejoin as
// rejoinID — and returns the id the coordinator's Welcome assigns.
//
// Both frames are fixed-size, and their bytes are booked in cfg.Counters
// before the first one leaves, not as they pass: the coordinator lists this
// edge as connected the moment it has written the Welcome, and whoever was
// waiting for that (AwaitRoster) may read the counters before this goroutine
// runs again. A frame that does not make it is taken back.
func handshake(conn net.Conn, cfg EdgeConfig, rejoinID int, timeout time.Duration) (uint32, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, fmt.Errorf("handshake deadline: %w", err)
	}
	regType, regBody := MsgJoin, encodeJoin(uint32(cfg.Shard.Len()))
	if rejoinID >= 0 {
		regType, regBody = MsgRejoin, encodeRejoin(uint32(rejoinID), uint32(cfg.Shard.Len()))
	}
	tx, rx := frameHeaderLen+len(regBody), frameHeaderLen+welcomeLen
	cfg.Counters.AddTx(tx)
	cfg.Counters.AddRx(rx)
	if err := writeFrame(conn, regType, regBody); err != nil {
		cfg.Counters.AddTx(-tx)
		cfg.Counters.AddRx(-rx)
		return 0, fmt.Errorf("register: %w", err)
	}
	payload, err := expectFrame(conn, MsgWelcome, handshakeLimit)
	if err != nil {
		cfg.Counters.AddRx(-rx)
		return 0, fmt.Errorf("welcome: %w", err)
	}
	cfg.Counters.AddRx(len(payload) - welcomeLen) // nothing, unless the Welcome is about to be refused
	id, err := decodeWelcome(payload)
	if err != nil {
		return 0, fmt.Errorf("welcome body: %w", err)
	}
	if rejoinID >= 0 && int(id) != rejoinID {
		return 0, fmt.Errorf("rejoin as %d welcomed as %d: %w", rejoinID, id, ErrProtocol)
	}
	return id, nil
}

// ID returns the coordinator-assigned client id.
func (e *EdgeServer) ID() int { return e.id }

// RoundsServed returns how many training requests this server has completed.
func (e *EdgeServer) RoundsServed() int { return e.roundsServed }

// Close tears down the connection.
func (e *EdgeServer) Close() error { return e.conn.Close() }

// Serve processes training requests until the coordinator shuts down, the
// connection drops, or ctx is cancelled. A clean shutdown (MsgShutdown)
// returns nil; connection failures of any kind — including corrupt or
// out-of-sync frames — return an error wrapping ErrConnLost so callers can
// reconnect; cancellation returns the context's error.
func (e *EdgeServer) Serve(ctx context.Context) error {
	// Watch ctx in the background: cancelling unblocks the read below.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// Force the blocked read to return.
			e.conn.SetReadDeadline(time.Now())
		case <-done:
		}
	}()

	for {
		t, payload, err := readFrameInto(e.conn, &e.readBuf, e.reqLimit)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("serve: %w", ctx.Err())
			}
			return fmt.Errorf("serve read: %v: %w", err, ErrConnLost)
		}
		e.cfg.Counters.AddRx(frameHeaderLen + len(payload))
		switch t {
		case MsgShutdown:
			return nil
		case MsgTrainRequest:
			if err := e.handleTrain(payload); err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("serve: %w", ctx.Err())
				}
				return err
			}
		default:
			// An unexpected type means the stream is out of sync (e.g. a
			// corrupt length prefix): reconnecting is the only repair.
			return fmt.Errorf("unexpected %v frame: %w", t, ErrConnLost)
		}
	}
}

// copyModel makes *dst a copy of src, reusing its storage when the shapes
// agree (they always do after a connection's first round).
func copyModel(dst **ml.Model, src *ml.Model) error {
	if *dst == nil || (*dst).W == nil || (*dst).Classes() != src.Classes() || (*dst).Features() != src.Features() {
		*dst = src.Clone()
		return nil
	}
	return (*dst).CopyFrom(src)
}

// decodeRequest parses a train request and reconstructs the broadcast global
// model as e.base: full-model requests carry it, delta requests code it
// against the last one or two broadcasts this connection decoded, residual
// requests add a quantized difference to the last. The successor is built in
// prevBase's storage — in place where that model is part of the prediction —
// so prevBase is void from the first byte on and base only moves once the
// whole body has decoded.
// Wire and state mismatches wrap ErrConnLost: a reconnect resets both ends
// to a full-model send, which is the repair.
func (e *EdgeServer) decodeRequest(payload []byte) (TrainRequest, error) {
	req, body, err := decodeTrainRequest(payload)
	if err != nil {
		return TrainRequest{}, fmt.Errorf("train request: %v: %w", err, ErrConnLost)
	}
	if e.prevBase == nil {
		e.prevBase = &ml.Model{}
	}
	next, prevRound := e.prevBase, e.prevRound
	e.prevRound = -1
	switch {
	case req.DownBits == 0:
		err = next.UnmarshalBinaryReuse(body)
	case e.baseRound < 0 || req.BaseRound != e.baseRound:
		err = fmt.Errorf("coded against round %d, have round %d", req.BaseRound, e.baseRound)
	case req.DownOrder == 1:
		err = ml.ApplyDelta(next, body, e.base)
	case req.DownOrder == 2:
		if prevRound != req.BaseRound-1 {
			err = fmt.Errorf("second-order delta needs round %d, have round %d", req.BaseRound-1, prevRound)
		} else {
			err = ml.ApplyDelta(next, body, e.base, e.base, next)
		}
	default: // quantized residual
		if e.resid == nil {
			e.resid = &ml.Model{}
		}
		if err = e.resid.DequantizeInto(body); err == nil {
			if err = copyModel(&next, e.base); err == nil {
				err = next.AddScaled(1, e.resid)
			}
		}
	}
	if err != nil {
		return TrainRequest{}, fmt.Errorf("round %d request model: %v: %w", req.Round, err, ErrConnLost)
	}
	e.prevBase, e.prevRound = e.base, e.baseRound
	e.base, e.baseRound = next, req.Round
	return req, nil
}

// handleTrain runs the requested local epochs and replies with the updated
// model. Wire-level failures wrap ErrConnLost; local training failures are
// returned as-is (retrying would rerun the same broken computation).
func (e *EdgeServer) handleTrain(payload []byte) error {
	req, err := e.decodeRequest(payload)
	if err != nil {
		return err
	}
	if err := copyModel(&e.work, e.base); err != nil {
		return fmt.Errorf("round %d work copy: %w", req.Round, err)
	}
	sgdCfg := ml.SGDConfig{
		LearningRate: req.LearningRate,
		BatchSize:    e.cfg.BatchSize,
		Seed:         e.cfg.Seed ^ uint64(req.Round)<<16,
	}
	if e.sgd == nil {
		e.sgd, err = ml.NewSGD(sgdCfg)
	} else {
		err = e.sgd.Reset(sgdCfg)
	}
	if err != nil {
		return fmt.Errorf("round %d sgd: %w", req.Round, err)
	}
	loss, err := e.sgd.TrainFinal(e.work, e.cfg.Shard, req.Epochs)
	if err != nil {
		return fmt.Errorf("round %d train: %w", req.Round, err)
	}
	rep := TrainReply{
		Round:   req.Round,
		Loss:    loss,
		Samples: e.cfg.Shard.Len(),
		Bits:    req.ReplyBits,
		Model:   e.work,
	}
	bp := newFrame()
	defer freeFrame(bp)
	var out []byte
	if e.workRound == req.Round-1 && e.prevRound == req.Round-1 {
		// This connection answered the round before: expect the local model
		// to step away from the global as it did then.
		out, err = appendTrainReply(*bp, rep, e.base, e.prevWork, e.prevBase)
	} else {
		out, err = appendTrainReply(*bp, rep, e.base)
	}
	if err != nil {
		return err
	}
	*bp = out
	n, err := writeFrameBuf(e.conn, MsgTrainReply, bp)
	if err != nil {
		return fmt.Errorf("round %d reply: %v: %w", req.Round, err, ErrConnLost)
	}
	e.workRound = -1
	if req.ReplyBits == 0 {
		e.work, e.prevWork, e.workRound = e.prevWork, e.work, req.Round
	}
	e.cfg.Counters.AddTx(n)
	e.roundsServed++
	return nil
}

// RunEdgeServer dials, serves, and — when cfg.Retry is enabled — redials
// with capped exponential backoff and re-registers under its original id
// after every lost connection: the whole life of one edge-server process,
// as cmd/fededge uses it. With retries disabled it preserves the legacy
// single-attempt behaviour, where an abrupt coordinator disappearance after
// registration counts as a shutdown.
func RunEdgeServer(ctx context.Context, cfg EdgeConfig) error {
	// The jitter stream is deliberately independent of the training seeds
	// derived from cfg.Seed elsewhere.
	jitter := mat.NewRNG(cfg.Seed ^ 0x7c159e3779b97f4a)
	sleep := cfg.sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	id := -1
	failures := 0
	for {
		srv, err := dialAs(cfg, id)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("connect: %w", ctx.Err())
			}
			failures++
			if failures > cfg.Retry.MaxAttempts {
				if !cfg.Retry.Enabled() {
					return err
				}
				return fmt.Errorf("connect failed %d times, last: %v: %w",
					failures, err, ErrRetriesExhausted)
			}
			if err := sleep(ctx, cfg.Retry.Backoff(failures, jitter)); err != nil {
				return err
			}
			continue
		}
		failures = 0
		id = srv.ID()
		err = srv.Serve(ctx)
		srv.Close()
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return err
		case !errors.Is(err, ErrConnLost):
			return err
		case !cfg.Retry.Enabled():
			// Legacy semantics: the coordinator went away without a
			// farewell — treat as shutdown.
			return nil
		}
		// Connection lost with retries enabled: loop re-registers as id.
	}
}
