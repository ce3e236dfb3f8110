package flnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// scriptedCoordinator speaks just enough of the protocol for RunEdgeServer
// to register: read the Join/Rejoin, welcome the edge (echoing a rejoin id),
// then either vanish abruptly (forcing ErrConnLost and a reconnect) or shut
// down cleanly.
func scriptedCoordinator(c net.Conn, clean bool) {
	defer c.Close()
	typ, payload, err := readFrame(c, handshakeLimit)
	if err != nil {
		return
	}
	var id uint32
	if typ == MsgRejoin {
		id, _, _ = decodeRejoin(payload)
	}
	if err := writeFrame(c, MsgWelcome, encodeWelcome(id)); err != nil {
		return
	}
	if clean {
		writeFrame(c, MsgShutdown, nil)
	}
}

// TestRetryBackoffDeterministicAcrossReconnects pins the full reconnect-
// lifecycle backoff schedule, not just a single Backoff call: the jitter RNG
// lives across the whole RunEdgeServer call, so a fixed seed must reproduce
// the identical delay sequence across a scripted run of dial failures,
// a successful registration, an abrupt mid-serve disconnect, more dial
// failures, and a clean shutdown — and the sequence must equal the one
// computed from a cloned RNG, proving the failure counter resets after each
// successful connection while the jitter stream does not.
func TestRetryBackoffDeterministicAcrossReconnects(t *testing.T) {
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 20
	shard, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	policy := RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
		Multiplier:  2,
		JitterFrac:  0.5,
	}
	const seed = 1234

	run := func() []time.Duration {
		var mu sync.Mutex
		attempt := 0
		dial := func(addr string, timeout time.Duration) (net.Conn, error) {
			mu.Lock()
			attempt++
			a := attempt
			mu.Unlock()
			switch a {
			case 1, 2, 3, 5, 6:
				return nil, errors.New("connection refused")
			case 4:
				client, server := net.Pipe()
				go scriptedCoordinator(server, false) // abrupt: forces reconnect
				return client, nil
			default:
				client, server := net.Pipe()
				go scriptedCoordinator(server, true) // clean shutdown
				return client, nil
			}
		}
		var schedule []time.Duration
		err := RunEdgeServer(context.Background(), EdgeConfig{
			Addr:  "scripted",
			Shard: shard,
			Seed:  seed,
			Retry: policy,
			Dial:  dial,
			sleep: func(ctx context.Context, d time.Duration) error {
				schedule = append(schedule, d)
				return nil
			},
		})
		if err != nil {
			t.Fatalf("RunEdgeServer: %v", err)
		}
		if attempt != 7 {
			t.Fatalf("script consumed %d dial attempts, want 7", attempt)
		}
		return schedule
	}

	first := run()
	second := run()
	if len(first) != 5 {
		t.Fatalf("recorded %d backoffs, want 5: %v", len(first), first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("backoff %d differs across same-seed runs: %v vs %v", i, first[i], second[i])
		}
	}

	// The schedule must be explainable: attempts 1..3 before the first
	// connection, then the counter resets and attempts 1..2 precede the
	// second — all drawn from one continuous jitter stream seeded exactly
	// as RunEdgeServer seeds it.
	rng := mat.NewRNG(seed ^ 0x7c159e3779b97f4a)
	want := []time.Duration{
		policy.Backoff(1, rng),
		policy.Backoff(2, rng),
		policy.Backoff(3, rng),
		policy.Backoff(1, rng),
		policy.Backoff(2, rng),
	}
	for i := range want {
		if first[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (jitter stream out of step)", i, first[i], want[i])
		}
	}
	// With jitter enabled the grown delays must actually differ from the
	// unjittered curve somewhere, or this test would pass vacuously.
	plain := []time.Duration{}
	prng := (*mat.RNG)(nil)
	for _, a := range []int{1, 2, 3, 1, 2} {
		plain = append(plain, policy.Backoff(a, prng))
	}
	same := true
	for i := range want {
		if want[i] != plain[i] {
			same = false
		}
	}
	if same {
		t.Error("jittered schedule identical to unjittered curve; jitter not exercised")
	}
}
