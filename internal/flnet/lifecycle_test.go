package flnet

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
)

// lifecycleCoordinator builds a minimal coordinator on a loopback listener
// for lifecycle edge-case tests.
func lifecycleCoordinator(t *testing.T, minReplies int) *Coordinator {
	t.Helper()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 50
	test, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: 1,
			LocalEpochs:     1,
			LearningRate:    0.5,
			Seed:            1,
		},
		Classes:      test.Classes,
		Features:     test.Dim(),
		RoundTimeout: 5 * time.Second,
		JoinTimeout:  30 * time.Second,
		MinReplies:   minReplies,
	}, ln, test)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(coord.Shutdown)
	return coord
}

func TestWaitForClientsContextCancelMidWait(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- coord.WaitForClients(ctx, 1) }()
	time.Sleep(20 * time.Millisecond) // let the wait actually start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("WaitForClients after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitForClients did not return after context cancel")
	}
}

// rawJoin registers a fake client over plain TCP and returns its conn. The
// fake never answers training requests, so a round against it hangs until
// something closes the connection.
func rawJoin(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := writeFrame(conn, MsgJoin, encodeJoin(10)); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := expectFrame(conn, MsgWelcome, handshakeLimit); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	return conn
}

func TestShutdownWithRoundInFlight(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}
	conn := rawJoin(t, coord.Addr().String())
	defer conn.Close()
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("AwaitRoster: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := coord.Round(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // round is now blocked on the mute client
	coord.Shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Error("round over a shutdown coordinator reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Round did not unblock after Shutdown")
	}
}

func TestDoubleShutdown(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	coord.Shutdown()
	coord.Shutdown() // must be idempotent, not panic on closed listener/conns
}

func TestRoundAfterShutdownErrors(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	coord.Shutdown()
	if _, err := coord.Round(context.Background()); err == nil {
		t.Error("Round after Shutdown must error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 1, time.Second); err == nil {
		t.Error("AwaitRoster after Shutdown must error")
	}
}

func TestJoinAfterShutdownRefused(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	coord.AwaitRoster(ctx, 0, time.Second)
	coord.Shutdown()
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 20
	shard, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if _, err := Dial(EdgeConfig{
		Addr:        coord.Addr().String(),
		Shard:       shard,
		DialTimeout: 2 * time.Second,
	}); err == nil {
		t.Error("Dial against a shut-down coordinator must fail")
	}
}

// TestAwaitRosterWakesOnRegistration pins the wake-up: waiters sleep on the
// roster, not on a clock; each returns when its count is reached — or the
// coordinator goes down, or its own timeout ends — and several at once all
// wake.
func TestAwaitRosterWakesOnRegistration(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Three waiters, one of them for a roster that never fills.
	type result struct {
		n   int
		err error
	}
	results := make(chan result, 3)
	for _, n := range []int{1, 2, 3} {
		go func(n int) {
			err := coord.AwaitRoster(ctx, n, 20*time.Second)
			results <- result{n, err}
		}(n)
	}
	time.Sleep(20 * time.Millisecond) // let them block
	for i := 1; i <= 2; i++ {
		conn := rawJoin(t, coord.Addr().String())
		defer conn.Close()
		if res := <-results; res.n != i || res.err != nil {
			t.Fatalf("after join %d: waiter for %d returned %v", i, res.n, res.err)
		}
	}
	coord.Shutdown()
	if res := <-results; res.n != 3 || !errors.Is(res.err, ErrCoordinator) {
		t.Errorf("waiter for 3 after Shutdown = %+v, want ErrCoordinator", res)
	}

	// Its own timeout, with nothing happening on the roster.
	idle := lifecycleCoordinator(t, 0)
	start := time.Now()
	err := idle.AwaitRoster(ctx, 1, 30*time.Millisecond)
	if !errors.Is(err, ErrCoordinator) || time.Since(start) < 30*time.Millisecond {
		t.Errorf("AwaitRoster on an idle coordinator = %v after %v, want ErrCoordinator after its 30 ms", err, time.Since(start))
	}
}

// TestCountersSettleBeforeRosterFills: the moment AwaitRoster reports an edge
// connected, that edge's handshake — one Join out, one Welcome back — is in
// its counters, although the edge may not have run since the Welcome was
// written. (The bench reads the counters at exactly that moment.)
func TestCountersSettleBeforeRosterFills(t *testing.T) {
	cfg := dataset.QuickSyntheticConfig()
	cfg.Samples = 20
	shard, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	coord := lifecycleCoordinator(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const join, welcome = frameHeaderLen + 5, frameHeaderLen + welcomeLen
	var counters WireCounters
	var wg sync.WaitGroup
	defer wg.Wait()
	defer coord.Shutdown()
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunEdgeServer(ctx, EdgeConfig{Addr: coord.Addr().String(), Shard: shard, Seed: 1, Counters: &counters})
		}()
		if err := coord.AwaitRoster(ctx, i, 10*time.Second); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		if tx, rx := counters.Tx(), counters.Rx(); tx != int64(i*join) || rx != int64(i*welcome) {
			t.Fatalf("with %d edges connected the counters read tx %d rx %d, want %d and %d", i, tx, rx, i*join, i*welcome)
		}
	}
}

// TestHandshakesBounded: dialers that connect and never say a word hold at
// most maxHandshakes handshake goroutines, however many there are, and a real
// edge still joins once their handshakes time out and free a slot.
func TestHandshakesBounded(t *testing.T) {
	coord := lifecycleCoordinator(t, 0)
	coord.handshake = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := runtime.NumGoroutine()
	coord.AwaitRoster(ctx, 0, time.Second) // starts the accept loop

	const stalled = maxHandshakes + 16
	for i := 0; i < stalled; i++ {
		conn, err := net.DialTimeout("tcp", coord.Addr().String(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer conn.Close()
	}
	// The accept loop plus one goroutine per handshake in flight; the dialers
	// themselves run none. The slack absorbs earlier tests' goroutines still
	// winding down; without the cap the count would rise by all 80.
	limit := base + 1 + maxHandshakes + 8
	peak := 0
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak > limit {
		t.Errorf("%d silent dialers raised the goroutine count to %d, want at most %d", stalled, peak, limit)
	}
	if peak < base+maxHandshakes/2 {
		t.Errorf("goroutine count peaked at %d from %d: the silent dialers' handshakes never ran", peak, base)
	}

	conn := rawJoin(t, coord.Addr().String())
	defer conn.Close()
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("real edge behind %d silent dialers: %v", stalled, err)
	}
}
