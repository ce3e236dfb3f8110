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

	"eefei/internal/fl"
	"eefei/internal/ml"
)

// target is one selected roster slot: what the round sends it, the
// connection it is reached on, and what came back. After selection each
// target is touched only by its own exchange goroutine until exchangeAll
// returns.
type target struct {
	cl *clientConn
	id int
	// conn and gen start as the selection-time snapshot and follow every
	// in-round repair, so once the exchange is over gen is the registration
	// generation of the last connection this round actually used: comparing
	// it with the roster keeps the downlink commit and the failure marking
	// off a connection the round never touched.
	conn net.Conn
	gen  int
	// base and prev are what the connection held when the round began (see
	// clientConn; nil: nothing), the predictors its request and reply may be
	// coded against; next is what it holds once the request is delivered —
	// the global, or, staged, its private reconstruction of a quantized
	// residual, which the round owns until commitLink hands it to the slot.
	// prevSent is base's model while the slot's repModel still holds the
	// reply to it, i.e. while a second-order reply can be decoded. A repair
	// moves the target to a connection that holds nothing.
	base, prev, next *snapshot
	staged           bool
	prevSent         *ml.Model
	// frame is the sealed request frame, shared between the targets whose
	// connections hold the same rounds; retry is the pooled buffer behind a
	// repair's re-sealed frame.
	frame []byte
	retry *[]byte

	rep     TrainReply
	retries int
	err     error
}

// round is the state of one Coordinator.Round call, advanced by the named
// steps below in the order Round calls them. Everything a step needs from an
// earlier one lives here, so a step reads as what it does, not as what it
// captured.
type round struct {
	c        *Coordinator
	obs      fl.RoundObserver
	pc       fl.PhaseClock
	t        int       // round index
	global   *snapshot // the model the round broadcasts
	req      TrainRequest
	targets  []target
	frames   []*[]byte // pooled request buffers, released when the round returns
	deadline time.Time
	wg       sync.WaitGroup
	// tx/rx are the downlink (coordinator→client) and uplink frame bytes
	// actually exchanged this round — the measured volume the radio energy
	// model prices. Datagram transports additionally count packet attempts
	// and deliveries per direction (see dgramMetered); snapshot deltas
	// around each exchange accumulate in the other four.
	tx, rx                     atomic.Int64
	downAttempt, downDelivered atomic.Int64
	upAttempt, upDelivered     atomic.Int64
	rec                        fl.RoundRecord
}

// Round runs one synchronous FedAvg round over the network. With MinReplies
// set, clients that fail mid-round are dropped from the round (and marked
// disconnected until they rejoin) while the aggregation proceeds over the
// quorum of survivors; the round record lists the casualties.
func (c *Coordinator) Round(ctx context.Context) (fl.RoundRecord, error) {
	r := &round{c: c}
	defer r.release()
	if err := r.begin(); err != nil {
		return fl.RoundRecord{}, err
	}
	r.pc.Lap(fl.PhaseSelect)
	r.exchangeAll(ctx)
	r.commitLink()
	if err := r.settle(); err != nil {
		return fl.RoundRecord{}, err
	}
	r.pc.Lap(fl.PhaseTrain)
	if err := r.aggregate(); err != nil {
		return fl.RoundRecord{}, err
	}
	r.pc.Lap(fl.PhaseAggregate)
	if err := r.evaluate(); err != nil {
		return fl.RoundRecord{}, err
	}
	r.pc.Lap(fl.PhaseEvaluate)
	r.commit()
	r.observe()
	return r.rec, nil
}

// begin opens the round under the coordinator mutex: it latches the observer,
// round index and global model, selects the targets and seals the request
// frames.
func (r *round) begin() error {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	r.obs = c.roundObs
	if r.obs != nil {
		r.pc = fl.NewPhaseClock(c.sampleMem)
	}
	r.t, r.global = c.round, c.global
	if err := r.selectTargets(); err != nil {
		return err
	}
	r.frames = c.frames[:0]
	err := r.buildFrames()
	c.frames = r.frames
	return err
}

// selectTargets draws K of the connected roster slots (mutex held). A short
// roster fails before the selection stream is touched.
func (r *round) selectTargets() error {
	c := r.c
	alive := c.alive[:0]
	for _, cl := range c.clients {
		if cl.connected {
			alive = append(alive, cl.id)
		}
	}
	c.alive = alive
	k := c.cfg.FL.ClientsPerRound
	if k > len(alive) {
		return fmt.Errorf("K=%d of %d alive clients: %w", k, len(alive), ErrCoordinator)
	}
	r.targets = c.targets[:0]
	for _, idx := range c.rng.Sample(len(alive), k) {
		cl := c.clients[alive[idx]]
		tg := target{cl: cl, id: cl.id, conn: cl.conn, gen: cl.gen, base: cl.base, prev: cl.prev}
		if cl.base != nil && cl.upRound == r.t-1 && cl.base.round == r.t-1 {
			tg.prevSent = cl.base.m
		}
		r.targets = append(r.targets, tg)
	}
	c.targets = r.targets
	return nil
}

// buildFrames seals every target's request frame. It runs while the mutex is
// still held because residuals stage per-client downlink state. Lossless
// frames are encoded once per distinct (base round, predictor order) — in the
// steady state of K = N that is once — and shared; quantized residuals are
// per target.
func (r *round) buildFrames() error {
	c := r.c
	r.req = TrainRequest{
		Round:        r.t,
		Epochs:       c.cfg.FL.LocalEpochs,
		LearningRate: c.cfg.FL.LearningRateAt(r.t),
		ReplyBits:    c.cfg.UploadQuantBits,
		BaseRound:    r.t,
	}
	type sealed struct {
		base, order int
		frame       []byte
	}
	shared := make([]sealed, 0, 4)
	downBits := c.cfg.DownloadQuantBits
targets:
	for i := range r.targets {
		tg := &r.targets[i]
		if downBits != 0 && tg.base != nil {
			bp, frame, err := r.buildResidualFrame(tg, downBits)
			if err != nil {
				return fmt.Errorf("round %d residual for client %d: %w", r.t, tg.id, err)
			}
			r.frames = append(r.frames, bp)
			tg.frame = frame
			continue
		}
		tg.next = r.global
		// Order 0 is the full model: a connection that holds nothing, or a
		// quantized downlink's cold start.
		base, order := r.t, 0
		if downBits == 0 && tg.base != nil {
			base, order = tg.base.round, 1
			if base == r.t-1 && tg.prev != nil && tg.prev.round == r.t-2 {
				order = 2
			}
		}
		for _, s := range shared {
			if s.base == base && s.order == order {
				tg.frame = s.frame
				continue targets
			}
		}
		var pred []*ml.Model
		switch order {
		case 1:
			pred = []*ml.Model{tg.base.m}
		case 2:
			// The global moved from round t−2 to t−1; expect as much again.
			pred = []*ml.Model{tg.base.m, tg.base.m, tg.prev.m}
		}
		bp, frame, err := r.buildFrame(base, pred...)
		if err != nil {
			return fmt.Errorf("round %d request: %w", r.t, err)
		}
		r.frames = append(r.frames, bp)
		shared = append(shared, sealed{base, order, frame})
		tg.frame = frame
	}
	return nil
}

// release returns every pooled frame buffer the round took, and any staged
// reconstruction it still owns (a round that failed before commitLink).
func (r *round) release() {
	for _, bp := range r.frames {
		freeFrame(bp)
	}
	for i := range r.targets {
		tg := &r.targets[i]
		if tg.retry != nil {
			freeFrame(tg.retry)
		}
		if tg.staged {
			r.unstage(tg)
		}
	}
	// The coordinator keeps the arrays, not what they point at.
	clear(r.frames)
	clear(r.targets)
}

// unstage gives back the reconstruction staged for a residual request that
// was not delivered.
func (r *round) unstage(tg *target) {
	r.c.mu.Lock()
	r.c.release(tg.next)
	r.c.mu.Unlock()
	tg.next, tg.staged = r.global, false
}

// exchangeAll runs every target's request/reply exchange concurrently, each
// to its final outcome, bounded by the round timeout and ctx's deadline.
func (r *round) exchangeAll(ctx context.Context) {
	r.deadline = time.Now().Add(r.c.cfg.RoundTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(r.deadline) {
		r.deadline = d
	}
	for i := range r.targets {
		r.wg.Add(1)
		go func(tg *target) {
			defer r.wg.Done()
			for {
				tg.rep, tg.err = r.exchange(tg)
				if tg.err == nil || !r.repair(tg) {
					return
				}
			}
		}(&r.targets[i])
	}
	r.wg.Wait()
}

// exchange sends tg's request frame on its current connection and reads and
// decodes the reply.
func (r *round) exchange(tg *target) (TrainReply, error) {
	conn, cl := tg.conn, tg.cl
	if m, metered := conn.(dgramMetered); metered {
		// Delta the conn's lifetime counters around this exchange —
		// success or failure, the attempted bytes were spent.
		a0, d0, p0, r0 := m.DgramCounters()
		defer func() {
			a1, d1, p1, r1 := m.DgramCounters()
			r.downAttempt.Add(a1 - a0)
			r.downDelivered.Add(d1 - d0)
			r.upAttempt.Add(p1 - p0)
			r.upDelivered.Add(r1 - r0)
		}()
	}
	if err := conn.SetDeadline(r.deadline); err != nil {
		return TrainReply{}, fmt.Errorf("client %d deadline: %w", tg.id, err)
	}
	if _, err := conn.Write(tg.frame); err != nil {
		return TrainReply{}, fmt.Errorf("client %d request: %w", tg.id, err)
	}
	r.tx.Add(int64(len(tg.frame)))
	payload, err := expectFrameInto(conn, MsgTrainReply, &cl.readBuf, r.c.repLimit)
	if err != nil {
		return TrainReply{}, fmt.Errorf("client %d reply: %w", tg.id, err)
	}
	r.rx.Add(int64(frameHeaderLen + len(payload)))
	if cl.repModel == nil {
		cl.repModel = &ml.Model{}
	}
	rep, err := decodeTrainReplyInto(payload, cl.repModel, tg.next.m, tg.prevSent)
	if err != nil {
		return TrainReply{}, fmt.Errorf("client %d reply body: %w", tg.id, err)
	}
	if rep.Round != r.t {
		return TrainReply{}, fmt.Errorf("client %d replied for round %d, want %d: %w",
			tg.id, rep.Round, r.t, ErrProtocol)
	}
	return rep, nil
}

// repair is the in-round recovery of a failed exchange: if the client
// re-registers within the grace window, tg moves to the fresh connection and
// this round's request is re-sealed for it — as a full model, because a
// fresh connection holds nothing to code against. It reports false, leaving
// the failure as tg's outcome, when no rejoin arrives in time.
func (r *round) repair(tg *target) bool {
	conn, gen, ok := r.c.awaitRejoin(tg.id, tg.gen, r.deadline)
	if !ok {
		return false
	}
	tg.conn, tg.gen = conn, gen
	tg.retries++
	tg.base, tg.prev, tg.prevSent = nil, nil, nil
	if tg.staged {
		r.unstage(tg)
	}
	if tg.retry != nil {
		freeFrame(tg.retry)
	}
	tg.retry, tg.frame, tg.err = r.buildFrame(r.t)
	return tg.err == nil
}

// commitLink records what each connection now holds, for every completed
// exchange — before quorum filtering, because delivery is a property of the
// wire, not of the round's outcome: an edge that received this broadcast and
// answered it predicts the next exchange from both, whether or not the round
// later reaches quorum. The gen check skips slots that re-registered after the
// delivery (register already dropped their state). A failed exchange leaves
// its slot to settle, which closes the connection and drops its state with it.
func (r *round) commitLink() {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range r.targets {
		tg := &r.targets[i]
		if tg.err != nil || tg.id >= len(c.clients) || c.clients[tg.id].gen != tg.gen {
			continue
		}
		cl := c.clients[tg.id]
		if !tg.staged {
			tg.next.refs++
		}
		tg.staged = false // the slot owns it now
		c.release(cl.prev)
		cl.prev, cl.base = cl.base, tg.next
		cl.upRound = -1
		if tg.rep.Bits == 0 || tg.rep.Bits == deltaBits {
			cl.upRound = r.t
		}
	}
}

// settle closes the exchange. Every failed target's slot is first marked
// disconnected and its connection closed — only if it is still the
// connection the round failed on; a bumped gen means the client already
// rejoined and the fresh connection is left alone — so that no outcome,
// abort included, leaves a dead peer on the roster for AwaitRoster and the
// next selection to find. Only then is the round decided: without MinReplies
// any failure aborts it; with MinReplies it continues on the survivors as
// long as they form the quorum. An aborted round's error joins every failed
// exchange's, in slot order, so it names each client that failed.
func (r *round) settle() error {
	c := r.c
	var errs []error
	replies := 0
	c.mu.Lock()
	for i := range r.targets {
		tg := &r.targets[i]
		if tg.err == nil {
			replies++
			continue
		}
		errs = append(errs, tg.err)
		if tg.id >= len(c.clients) {
			continue // roster was torn down by Shutdown
		}
		if cl := c.clients[tg.id]; cl.gen == tg.gen {
			cl.connected = false
			cl.conn.Close()
			c.dropLink(cl)
		}
	}
	c.mu.Unlock()
	failed := errors.Join(errs...)
	if failed != nil && c.cfg.MinReplies <= 0 {
		return fmt.Errorf("round %d: %w", r.t, failed)
	}
	if replies == 0 || replies < c.cfg.MinReplies {
		return fmt.Errorf("round %d: %d of %d replies (need %d): %w",
			r.t, replies, len(r.targets), c.cfg.MinReplies, errors.Join(ErrCoordinator, failed))
	}
	return nil
}

// aggregate averages the survivors' models per Eq. (2), in slot order, into
// the spare model that ping-pongs with the global at commit.
func (r *round) aggregate() error {
	updates := r.c.updates[:0]
	for i := range r.targets {
		if tg := &r.targets[i]; tg.err == nil {
			updates = append(updates, fl.Update{Client: tg.id, Model: tg.rep.Model})
		}
	}
	r.c.updates = updates
	if err := (fl.MeanAggregator{}).Aggregate(r.c.spare.m, updates); err != nil {
		return fmt.Errorf("round %d aggregate: %w", r.t, err)
	}
	return nil
}

// evaluate assembles the round record over the survivors and scores the
// aggregate. Without the raw shards, the coordinator reports the mean of the
// clients' final local losses as its training-loss proxy.
func (r *round) evaluate() error {
	c := r.c
	r.rec = fl.RoundRecord{
		Round:         r.t,
		LearningRate:  r.req.LearningRate,
		TestAccuracy:  math.NaN(),
		Selected:      make([]int, 0, len(r.targets)),
		LocalLosses:   make([]float64, 0, len(r.targets)),
		DownlinkBytes: r.tx.Load(),
		UplinkBytes:   r.rx.Load(),
		DgramBytes: fl.DgramBytes{
			DownlinkAttemptBytes:   r.downAttempt.Load(),
			DownlinkDeliveredBytes: r.downDelivered.Load(),
			UplinkAttemptBytes:     r.upAttempt.Load(),
			UplinkDeliveredBytes:   r.upDelivered.Load(),
		},
	}
	rec := &r.rec
	var lossSum float64
	for i := range r.targets {
		tg := &r.targets[i]
		rec.Retries += tg.retries
		if tg.err != nil {
			rec.Dropped = append(rec.Dropped, tg.id)
			continue
		}
		rec.Selected = append(rec.Selected, tg.id)
		rec.LocalLosses = append(rec.LocalLosses, tg.rep.Loss)
		lossSum += tg.rep.Loss
	}
	rec.TrainLoss = lossSum / float64(len(rec.Selected))
	if c.test != nil {
		// The evaluator reuses its chunk scratch round over round, keeping
		// warm rounds allocation-free where ml.Accuracy would allocate a
		// predictions slice and logits block per call. Bit-identical: hit
		// counts are integers, reduced in chunk order.
		acc, err := c.testEval.Accuracy(c.spare.m, c.test)
		if err != nil {
			return fmt.Errorf("round %d accuracy: %w", r.t, err)
		}
		rec.TestAccuracy = acc
	}
	return nil
}

// commit publishes the round: the aggregated spare becomes the global — a new
// snapshot; the old one lives on for as long as a connection holds it — and
// the round counter and history advance with it.
func (r *round) commit() {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	r.rec.Rejoins = c.rejoins
	c.rejoins = 0
	c.round++
	c.spare.round, c.spare.refs = c.round, 1
	c.release(c.global)
	c.global, c.spare = c.spare, c.takeFree()
	c.history = append(c.history, r.rec)
}

// observe hands the round's stats to the observer the round started with.
func (r *round) observe() {
	if r.obs == nil {
		return
	}
	st := r.pc.Finish(r.t)
	st.Workers = len(r.targets)
	st.Dropped = len(r.rec.Dropped)
	st.Rejoins = r.rec.Rejoins
	st.Retries = r.rec.Retries
	st.DownlinkBytes = r.rec.DownlinkBytes
	st.UplinkBytes = r.rec.UplinkBytes
	st.DgramBytes = r.rec.DgramBytes
	r.obs.ObserveRound(st)
}
