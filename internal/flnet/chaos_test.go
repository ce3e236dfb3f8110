package flnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// errSevered is what a severed connection returns.
var errSevered = errors.New("connection severed by the test dialer")

// severingDialer dials TCP with EdgeConfig.Dial's signature and severs its
// i-th connection after plan[i] bytes, or, off the plan, after an
// exponential budget of mean meanBytes drawn from seed (0: never). Bytes
// count in either direction, and a budget is a position in the connection's
// byte stream, so TCP segmentation and the size of reads and writes cannot
// move a cut: the same seed over the same bytes severs the same
// connections at the same offsets.
type severingDialer struct {
	seed      uint64
	meanBytes float64
	plan      map[int]int64

	conns, dropped atomic.Int64 // connections dialled (failed dials too); cuts made
}

// dial numbers the connection before dialling, so a refused dial still
// consumes its budget and later connections keep theirs.
func (d *severingDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	idx := int(d.conns.Add(1) - 1)
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return d.sever(conn, idx), nil
}

// sever wraps conn as connection idx.
func (d *severingDialer) sever(conn net.Conn, idx int) net.Conn {
	left := int64(math.MaxInt64)
	if n, ok := d.plan[idx]; ok {
		left = n
	} else if d.meanBytes > 0 {
		left = int64(exponential(mat.NewRNG(chaosSeed(d.seed, idx, 2)), 1/d.meanBytes)) + 1
	}
	return &severedConn{Conn: conn, d: d, left: left}
}

// exponential draws an exponentially distributed sample with the given rate
// (mean 1/rate) from r.
func exponential(r *mat.RNG, rate float64) float64 {
	var u float64
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// chaosSeed is fldgram's splitmix-style seed mixer.
func chaosSeed(seed uint64, idx int, stream uint64) uint64 {
	z := seed + uint64(idx+1)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 27)
}

// severedConn moves the prefix of the call that crosses its budget, then
// closes the connection and fails every later call.
type severedConn struct {
	net.Conn
	d *severingDialer

	mu   sync.Mutex
	left int64 // bytes still allowed
	cut  bool
}

// allow returns how many of want bytes may move.
func (c *severedConn) allow(want int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cut {
		return 0, errSevered
	}
	return int(min(int64(want), c.left)), nil
}

// spend charges n moved bytes and cuts the connection at its budget.
func (c *severedConn) spend(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.left -= int64(n)
	if c.left <= 0 && !c.cut {
		c.cut = true
		c.Conn.Close()
		c.d.dropped.Add(1)
	}
}

func (c *severedConn) Read(p []byte) (int, error) {
	n, err := c.allow(len(p))
	if err != nil {
		return 0, err
	}
	n, err = c.Conn.Read(p[:n])
	c.spend(n)
	return n, err
}

func (c *severedConn) Write(p []byte) (int, error) {
	allowed, err := c.allow(len(p))
	if err != nil {
		return 0, err
	}
	n, err := c.Conn.Write(p[:allowed])
	c.spend(n)
	if err == nil && n < len(p) {
		err = errSevered // the prefix used up the budget: spend cut
	}
	return n, err
}

// TestSeverIndependentOfChunking: a planned cut lands after exactly its byte
// count however the writes are sliced, which the chaos tests' same-seed
// comparisons rely on.
func TestSeverIndependentOfChunking(t *testing.T) {
	const cutAt = 1000
	for _, chunk := range []int{1, 7, 64, 999, 5000} {
		cli, srv := net.Pipe()
		d := &severingDialer{plan: map[int]int64{0: cutAt}}
		conn := d.sever(cli, 0)
		var got bytes.Buffer
		done := make(chan struct{})
		go func() {
			io.Copy(&got, srv) // until the cut closes the pipe
			close(done)
		}()
		total := 0
		var err error
		buf := bytes.Repeat([]byte{1}, chunk)
		for err == nil {
			var n int
			n, err = conn.Write(buf)
			total += n
		}
		srv.Close()
		<-done
		if !errors.Is(err, errSevered) {
			t.Fatalf("chunk %d: err = %v, want errSevered", chunk, err)
		}
		if total != cutAt || got.Len() != cutAt || d.dropped.Load() != 1 {
			t.Errorf("chunk %d: wrote %d / delivered %d bytes with %d cuts, want %d and 1",
				chunk, total, got.Len(), d.dropped.Load(), cutAt)
		}
	}
}

// chaosRetry is tuned for loopback tests: generous attempt budget, tiny
// delays, so a dropped edge rejoins within a few milliseconds.
func chaosRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 30,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
}

// edgeExitOK accepts the two legitimate chaos-run exits: a clean MsgShutdown
// (nil), or retries exhausted because the edge was mid-reconnect when the
// coordinator shut its listener.
func edgeExitOK(err error) bool {
	return err == nil || errors.Is(err, ErrRetriesExhausted)
}

// runChaosTraining trains a 5-edge cluster to `rounds` completed rounds with
// every edge connection dialled through a seeded severingDialer that
// severs connections at exponentially distributed byte positions. Edges are
// registered sequentially so the id↔shard mapping is identical across runs,
// and the coordinator's RejoinGrace lets every mid-round casualty repair
// itself via rejoin + re-sent request, so round outcomes do not depend on
// how reconnect latency races round boundaries. Failed rounds (quorum
// missed) are tolerated and retried; only committed rounds enter the
// history. A non-nil mutate hook adjusts the coordinator config (e.g. the
// residual-quantized downlink) before the cluster starts. Returns the
// history plus the per-edge dialers, which count connections and cuts.
func runChaosTraining(t *testing.T, seed uint64, rounds int, dropMeanBytes float64, mutate func(*CoordinatorConfig)) ([]fl.RoundRecord, []*severingDialer) {
	t.Helper()
	const servers, k = 5, 3

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
	ccfg := CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: k,
			LocalEpochs:     5,
			LearningRate:    0.5,
			Decay:           0.99,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
		MinReplies:   2,
		RejoinGrace:  5 * time.Second,
	}
	if mutate != nil {
		mutate(&ccfg)
	}
	coord, err := NewCoordinator(ccfg, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Kick the background registration loop before the first edge dials.
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}

	// Sequential registration pins client id i to shard i in every run:
	// determinism of the round histories depends on it.
	errs := make([]error, servers)
	dialers := make([]*severingDialer, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		dialers[i] = &severingDialer{seed: seed + uint64(i)*1000003, meanBytes: dropMeanBytes}
		wg.Add(1)
		go func(i int, dial func(string, time.Duration) (net.Conn, error)) {
			defer wg.Done()
			errs[i] = RunEdgeServer(context.Background(), EdgeConfig{
				Addr:  coord.Addr().String(),
				Shard: shards[i],
				Seed:  uint64(i + 1),
				Retry: chaosRetry(),
				Dial:  dial,
			})
		}(i, dialers[i].dial)
		if err := coord.AwaitRoster(ctx, i+1, 10*time.Second); err != nil {
			t.Fatalf("edge %d never registered: %v", i, err)
		}
	}

	failures := 0
	for len(coord.History()) < rounds {
		// Give dropped edges a window to rejoin; a timeout is not fatal —
		// the round just runs on the survivors.
		coord.AwaitRoster(ctx, servers, 5*time.Second)
		if _, err := coord.Round(ctx); err != nil {
			// Quorum missed: every selected client died this round. The
			// byte-position fault model makes this deterministic too, so
			// retrying keeps runs comparable.
			failures++
			if failures > rounds*3 {
				t.Fatalf("too many failed rounds (%d), last: %v", failures, err)
			}
		}
	}
	coord.Shutdown()
	wg.Wait()
	for i, err := range errs {
		if !edgeExitOK(err) {
			t.Errorf("edge %d exited with %v", i, err)
		}
	}
	return coord.History(), dialers
}

// TestChaosTrainingConvergesUnderFaults is the headline resilience test:
// with more than 10% of per-round client exchanges severed mid-stream,
// training must still reach the accuracy the fault-free cluster reaches,
// because every casualty rejoins (and the round repairs itself within the
// grace window or falls back to the quorum of survivors).
func TestChaosTrainingConvergesUnderFaults(t *testing.T) {
	history, dialers := runChaosTraining(t, 42, 12, 30_000, nil)
	last := history[len(history)-1]
	if last.TestAccuracy < 0.5 {
		t.Errorf("accuracy under faults = %v after %d rounds, want >= 0.5",
			last.TestAccuracy, len(history))
	}

	participations, rejoins, retries := 0, 0, 0
	for _, rec := range history {
		participations += len(rec.Selected) + len(rec.Dropped)
		rejoins += rec.Rejoins
		retries += rec.Retries
	}
	// The injected fault rate is counted at the dialers (byte-position
	// keyed, so deterministic): severed connections per client-round
	// participation.
	drops := countCuts(dialers)
	rate := float64(drops) / float64(participations)
	t.Logf("injected drops: %d/%d participations = %.2f, rejoins: %d, in-round retries: %d",
		drops, participations, rate, rejoins, retries)
	if rate < 0.10 {
		t.Errorf("injected drop rate = %.2f, want >= 0.10 (tune DropMeanBytes)", rate)
	}
	if rejoins == 0 {
		t.Error("no rejoins recorded despite injected drops")
	}
	if retries == 0 {
		t.Error("no in-round repairs recorded despite injected drops")
	}
}

// TestChaosDeterministicHistories re-runs the identical chaos configuration
// and demands bit-identical round histories: same selections, same
// casualties, same losses and accuracies. Rejoins and Retries are excluded
// — both are wall-clock telemetry (a reconnect racing a round boundary may
// be counted in either neighbouring round, or repair a round on its first
// rather than second attempt) and are documented as such.
func TestChaosDeterministicHistories(t *testing.T) {
	a, dialersA := runChaosTraining(t, 42, 8, 30_000, nil)
	b, dialersB := runChaosTraining(t, 42, 8, 30_000, nil)
	assertSameCuts(t, dialersA, dialersB)
	assertIdenticalHistories(t, a, b)
}

func countCuts(dialers []*severingDialer) int {
	n := 0
	for _, d := range dialers {
		n += int(d.dropped.Load())
	}
	return n
}

// assertSameCuts demands that each edge dialled and severed alike.
func assertSameCuts(t *testing.T, a, b []*severingDialer) {
	t.Helper()
	for i := range a {
		if a[i].conns.Load() != b[i].conns.Load() || a[i].dropped.Load() != b[i].dropped.Load() {
			t.Errorf("edge %d: %d conns %d cuts vs %d conns %d cuts", i,
				a[i].conns.Load(), a[i].dropped.Load(), b[i].conns.Load(), b[i].dropped.Load())
		}
	}
}

// assertIdenticalHistories demands bit-identical training outcomes per
// round; Rejoins/Retries stay excluded as wall-clock telemetry.
func assertIdenticalHistories(t *testing.T, a, b []fl.RoundRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Round != rb.Round {
			t.Errorf("record %d: round %d vs %d", i, ra.Round, rb.Round)
		}
		if !equalInts(ra.Selected, rb.Selected) {
			t.Errorf("round %d: selected %v vs %v", ra.Round, ra.Selected, rb.Selected)
		}
		if !equalInts(ra.Dropped, rb.Dropped) {
			t.Errorf("round %d: dropped %v vs %v", ra.Round, ra.Dropped, rb.Dropped)
		}
		if ra.LearningRate != rb.LearningRate {
			t.Errorf("round %d: lr %v vs %v", ra.Round, ra.LearningRate, rb.LearningRate)
		}
		if ra.TrainLoss != rb.TrainLoss {
			t.Errorf("round %d: train loss %v vs %v", ra.Round, ra.TrainLoss, rb.TrainLoss)
		}
		if ra.TestAccuracy != rb.TestAccuracy {
			t.Errorf("round %d: accuracy %v vs %v", ra.Round, ra.TestAccuracy, rb.TestAccuracy)
		}
		if !equalFloats(ra.LocalLosses, rb.LocalLosses) {
			t.Errorf("round %d: local losses %v vs %v", ra.Round, ra.LocalLosses, rb.LocalLosses)
		}
	}
}

// quant8Downlink switches the coordinator to the v2 error-feedback
// residual-quantized downlink at 8 bits.
func quant8Downlink(cfg *CoordinatorConfig) { cfg.DownloadQuantBits = ml.Quant8 }

// TestChaosQuantizedDownlinkConvergesUnderFaults covers the gap the
// lossless chaos tests left open: the v2 residual-quantized downlink under
// ≥10% injected connection drops with rejoins. A rejoin resets the residual
// chain to a full send, so this exercises exactly the downlink-state commit
// and base-round tracking that faults can desynchronize.
func TestChaosQuantizedDownlinkConvergesUnderFaults(t *testing.T) {
	history, dialers := runChaosTraining(t, 42, 12, 30_000, quant8Downlink)
	last := history[len(history)-1]
	if last.TestAccuracy < 0.5 {
		t.Errorf("accuracy with Quant8 downlink under faults = %v after %d rounds, want >= 0.5",
			last.TestAccuracy, len(history))
	}
	participations, rejoins := 0, 0
	for _, rec := range history {
		participations += len(rec.Selected) + len(rec.Dropped)
		rejoins += rec.Rejoins
	}
	drops := countCuts(dialers)
	rate := float64(drops) / float64(participations)
	t.Logf("quant8 chaos: injected drops %d/%d participations = %.2f, rejoins %d",
		drops, participations, rate, rejoins)
	if rate < 0.10 {
		t.Errorf("injected drop rate = %.2f, want >= 0.10 (tune DropMeanBytes)", rate)
	}
	if rejoins == 0 {
		t.Error("no rejoins recorded despite injected drops")
	}
}

// TestChaosQuantizedDownlinkDeterministicHistories pins same-seed
// bit-identical histories for the residual-quantized downlink under chaos:
// quantization error feedback accumulates state per connection, and a
// divergent reset after any rejoin would show up here.
func TestChaosQuantizedDownlinkDeterministicHistories(t *testing.T) {
	a, dialersA := runChaosTraining(t, 42, 8, 30_000, quant8Downlink)
	b, dialersB := runChaosTraining(t, 42, 8, 30_000, quant8Downlink)
	assertSameCuts(t, dialersA, dialersB)
	assertIdenticalHistories(t, a, b)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRejoinRestoresClientAfterMidRoundDrop pins the rejoin mechanics with a
// planned fault: edge 1's first connection severs at byte 2000 — mid-way
// through reading round 0's train request — so round 0 commits on edge 0
// alone and lists edge 1 as dropped; after the automatic rejoin, round 1
// selects both edges again under the same client id.
func TestRejoinRestoresClientAfterMidRoundDrop(t *testing.T) {
	const servers, k = 2, 2

	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 200
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
			LocalEpochs:     2,
			LearningRate:    0.5,
			Seed:            1,
		},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 30 * time.Second,
		JoinTimeout:  10 * time.Second,
		MinReplies:   1,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}

	errs := make([]error, servers)
	var wg sync.WaitGroup
	for i := 0; i < servers; i++ {
		cfg := EdgeConfig{
			Addr:  coord.Addr().String(),
			Shard: shards[i],
			Seed:  uint64(i + 1),
			Retry: chaosRetry(),
		}
		if i == 1 {
			cfg.Dial = (&severingDialer{plan: map[int]int64{0: 2000}}).dial
		}
		wg.Add(1)
		go func(cfg EdgeConfig, i int) {
			defer wg.Done()
			errs[i] = RunEdgeServer(context.Background(), cfg)
		}(cfg, i)
		if err := coord.AwaitRoster(ctx, i+1, 10*time.Second); err != nil {
			t.Fatalf("edge %d never registered: %v", i, err)
		}
	}

	rec0, err := coord.Round(ctx)
	if err != nil {
		t.Fatalf("round 0: %v", err)
	}
	if !equalInts(rec0.Selected, []int{0}) || !equalInts(rec0.Dropped, []int{1}) {
		t.Fatalf("round 0 selected %v dropped %v, want [0] and [1]",
			rec0.Selected, rec0.Dropped)
	}

	if err := coord.AwaitRoster(ctx, servers, 10*time.Second); err != nil {
		t.Fatalf("edge 1 never rejoined: %v", err)
	}
	rec1, err := coord.Round(ctx)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(rec1.Selected) != 2 || len(rec1.Dropped) != 0 {
		t.Fatalf("round 1 selected %v dropped %v, want both edges back",
			rec1.Selected, rec1.Dropped)
	}
	if rec0.Rejoins+rec1.Rejoins < 1 {
		t.Error("no rejoin recorded across the two rounds")
	}

	coord.Shutdown()
	wg.Wait()
	for i, err := range errs {
		if !edgeExitOK(err) {
			t.Errorf("edge %d exited with %v", i, err)
		}
	}
}
