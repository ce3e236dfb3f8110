package fldgram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"eefei/internal/mat"
)

// fill writes a deterministic pseudo-random payload of n bytes.
func fill(n int, seed uint64) []byte {
	rng := mat.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// echo pumps every frame-sized read back to the writer. The fixed read
// size stands in for flnet's length-prefix framing.
func echo(t *testing.T, c net.Conn, frame, count int) {
	t.Helper()
	buf := make([]byte, frame)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("echo read %d: %v", i, err)
			return
		}
		if _, err := c.Write(buf); err != nil {
			t.Errorf("echo write %d: %v", i, err)
			return
		}
	}
}

func testRoundTrip(t *testing.T, a, b net.Conn, frame, count int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		echo(t, b, frame, count)
	}()
	buf := make([]byte, frame)
	for i := 0; i < count; i++ {
		msg := fill(frame, uint64(i)+1)
		if _, err := a.Write(msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := io.ReadFull(a, buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, msg) {
			t.Fatalf("frame %d corrupted in transit", i)
		}
	}
	wg.Wait()
}

func TestConnReliableRoundTrip(t *testing.T) {
	a, b := Pipe(Config{}, Config{})
	defer a.Close()
	defer b.Close()
	// Frames both below and far above the MTU.
	testRoundTrip(t, a, b, 70000, 3)

	s := a.Stats()
	if s.TxAttempts != s.TxDelivered {
		t.Fatalf("reliable link: %d attempts for %d delivered", s.TxAttempts, s.TxDelivered)
	}
	if s.TxAttemptBytes != s.TxDeliveredBytes {
		t.Fatalf("reliable link: %d attempt bytes, %d delivered bytes", s.TxAttemptBytes, s.TxDeliveredBytes)
	}
}

func TestConnLossyRoundTrip(t *testing.T) {
	const p = 0.7
	cfg := Config{Seed: 11, SuccessProb: p}
	a, b := Pipe(cfg, cfg)
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 32<<10, 8)

	// Both directions saw loss; each side's attempts/delivered must sit
	// near the geometric 1/p (exact distribution, finite-sample tolerance).
	for name, s := range map[string]Stats{"a": a.Stats(), "b": b.Stats()} {
		if s.TxDelivered == 0 {
			t.Fatalf("%s: nothing delivered", name)
		}
		ratio := float64(s.TxAttemptBytes) / float64(s.TxDeliveredBytes)
		if math.Abs(ratio-1/p) > 0.15 {
			t.Errorf("%s: attempts/delivered = %.3f, want ≈ %.3f", name, ratio, 1/p)
		}
		if s.RxDupPackets != 0 {
			// Injected drops never reach the carrier, and ACKs are
			// reliable, so no retransmission can arrive as a duplicate.
			t.Errorf("%s: %d dup packets on a loss-only link", name, s.RxDupPackets)
		}
	}
}

// TestConnDupAndReorder: over a carrier that duplicates and reorders, the
// stream arrives intact.
func TestConnDupAndReorder(t *testing.T) {
	a, b := faultPipe(Config{Seed: 5, RTO: 20 * time.Millisecond}, faults{dup: 0.2, reorder: 0.1})
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 8<<10, 6)

	sa, sb := a.Stats(), b.Stats()
	if sa.RxDupPackets+sb.RxDupPackets == 0 {
		t.Error("expected duplicate deliveries with dup=0.2")
	}
	// Reordering must never corrupt or reorder the stream (asserted by
	// testRoundTrip); strays ahead of the frontier are dropped and retried.
	if sa.RxInvalidPackets+sb.RxInvalidPackets != 0 {
		t.Errorf("invalid packets on a corruption-free link: %d/%d",
			sa.RxInvalidPackets, sb.RxInvalidPackets)
	}
}

// TestConnAckLossRecovers: over a carrier that loses ACKs, the stream
// arrives intact.
func TestConnAckLossRecovers(t *testing.T) {
	a, b := faultPipe(Config{Seed: 3, RTO: 10 * time.Millisecond}, faults{ackLoss: 0.4})
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 4<<10, 4)
	sa, sb := a.Stats(), b.Stats()
	// Lost ACKs force genuine retransmissions, which arrive as duplicates.
	if sa.TxAttempts == sa.TxDelivered && sb.TxAttempts == sb.TxDelivered &&
		sa.RxDupPackets+sb.RxDupPackets == 0 {
		t.Error("expected retransmissions under ACK loss")
	}
}

// TestConnAttemptCountersDeterministic pins the determinism contract: same
// seed, same byte stream → identical attempt/delivery counters, because
// injected drops are decided before the carrier and never wait on a clock.
func TestConnAttemptCountersDeterministic(t *testing.T) {
	run := func() (Stats, Stats) {
		cfgA := Config{Seed: 99, SuccessProb: 0.8}
		cfgB := Config{Seed: 42, SuccessProb: 0.8}
		a, b := Pipe(cfgA, cfgB)
		defer a.Close()
		defer b.Close()
		testRoundTrip(t, a, b, 16<<10, 5)
		return a.Stats(), b.Stats()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same-seed counters differ:\n a: %+v\nvs %+v\n b: %+v\nvs %+v", a1, a2, b1, b2)
	}
	if a1.TxAttempts == a1.TxDelivered {
		t.Fatal("lossy run recorded no retransmissions; chaos not engaged")
	}
}

// TestConnPeerAttemptCounter verifies the header-carried cumulative counter:
// after a request/reply exchange each side knows the other's attempted
// bytes exactly.
func TestConnPeerAttemptCounter(t *testing.T) {
	cfg := Config{Seed: 7, SuccessProb: 0.75}
	a, b := Pipe(cfg, cfg)
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 16<<10, 4)

	sa, sb := a.Stats(), b.Stats()
	if sa.PeerAttemptBytes != sb.TxAttemptBytes {
		t.Errorf("a sees peer attempts %d, b spent %d", sa.PeerAttemptBytes, sb.TxAttemptBytes)
	}
	if sb.PeerAttemptBytes != sa.TxAttemptBytes {
		t.Errorf("b sees peer attempts %d, a spent %d", sb.PeerAttemptBytes, sa.TxAttemptBytes)
	}
	if sa.RxDeliveredBytes != sb.TxDeliveredBytes {
		t.Errorf("a received %d delivered bytes, b delivered %d", sa.RxDeliveredBytes, sb.TxDeliveredBytes)
	}
}

func TestConnCloseUnblocksPeerRead(t *testing.T) {
	a, b := Pipe(Config{}, Config{})
	defer b.Close()
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("peer read after close: %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer read still blocked after close")
	}
	// Writing into a closed peer fails rather than hanging.
	if _, err := b.Write(make([]byte, 64)); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestConnDeadlines(t *testing.T) {
	a, b := Pipe(Config{}, Config{})
	defer a.Close()
	defer b.Close()

	a.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline: %v", err)
	}
	// Clearing the deadline revives the conn.
	a.SetReadDeadline(time.Time{})
	go func() { b.Write([]byte("x")) }()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(a, buf); err != nil || buf[0] != 'x' {
		t.Fatalf("read after clearing deadline: %v %q", err, buf)
	}

	// A write deadline binds even when every attempt is injected-dropped
	// (SuccessProb so small the ARQ would spin through its attempt budget).
	c, d := Pipe(Config{Seed: 1, SuccessProb: 1e-9, MaxAttempts: 1 << 20}, Config{})
	defer c.Close()
	defer d.Close()
	c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := c.Write(make([]byte, 100)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write past deadline: %v", err)
	}
}

func TestConnMaxAttemptsExhausted(t *testing.T) {
	a, b := Pipe(Config{Seed: 8, SuccessProb: 1e-12, MaxAttempts: 16}, Config{})
	defer a.Close()
	defer b.Close()
	_, err := a.Write(make([]byte, 10))
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("want attempt exhaustion wrapping ErrTransport, got %v", err)
	}
	s := a.Stats()
	if s.TxAttempts != 16 || s.TxDelivered != 0 {
		t.Fatalf("attempts=%d delivered=%d, want 16/0", s.TxAttempts, s.TxDelivered)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero value", Config{}, true},
		{"explicit defaults", Config{MTU: DefaultMTU, RTO: DefaultRTO, MaxAttempts: DefaultMaxAttempts}, true},
		{"lossy", Config{SuccessProb: 0.9}, true},
		{"mtu too small", Config{MTU: 63}, false},
		{"mtu too large", Config{MTU: maxMTU + 1}, false},
		{"negative rto", Config{RTO: -time.Second}, false},
		{"negative attempts", Config{MaxAttempts: -1}, false},
		{"success prob > 1", Config{SuccessProb: 1.5}, false},
		{"negative success prob", Config{SuccessProb: -0.1}, false},
		{"NaN success prob", Config{SuccessProb: math.NaN()}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && !errors.Is(err, ErrTransport) {
				t.Fatalf("want ErrTransport, got %v", err)
			}
		})
	}
}

// TestFatesDeterministic pins the first 2 000 draws of two sets of seeded
// streams, one byte (drop | dup<<1 | hold<<2) per packet with a drop
// clearing dup and hold, to digests taken from the packet injector these
// streams were moved out of: loss, dup and reorder streams under the tags a
// Conn and a faultLink seed them with, and the loss stream of conn 0 at
// seed 1 and p = 0.9, as the Conn draws it.
func TestFatesDeterministic(t *testing.T) {
	a, b := Pipe(Config{Seed: 1, SuccessProb: 0.9}, Config{})
	defer a.Close()
	defer b.Close()
	for _, tc := range []struct {
		loss, dup, hold chance
		want            string
	}{
		{newChance(mixSeed(77, 0, 5), 0.2), newChance(mixSeed(77, 0, 6), 0.1), newChance(mixSeed(77, 0, 7), 0.05),
			"b30f3a4c0a68a6fcdaedf492cc65f8976ca36fd4e7e0e85e50c33e145af67ed6"},
		{a.loss, chance{}, chance{}, "11c1356747ddd9148193519adf6c500b335f1b7cddcb9acbba65556068b30907"},
	} {
		h := sha256.New()
		for range 2000 {
			drop, dup, hold := tc.loss.draw(), tc.dup.draw(), tc.hold.draw()
			h.Write([]byte{b2u(drop) | b2u(dup && !drop)<<1 | b2u(hold && !drop)<<2})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("fates digest %s, want %s", got, tc.want)
		}
	}
}

// TestFatesRates checks each stream's rate.
func TestFatesRates(t *testing.T) {
	const n = 20000
	for tag, p := range []float64{0.3, 0.15, 0.1} {
		c, hits := newChance(mixSeed(3, 0, uint64(tag)), p), 0
		for range n {
			hits += int(b2u(c.draw()))
		}
		if got := float64(hits) / n; math.Abs(got-p) > 0.02 {
			t.Errorf("p=%v: rate %.3f", p, got)
		}
	}
}

// TestFatesZeroConfigInert: a reliable Config (SuccessProb 0 or 1) gives
// its Conns no loss stream, and a stream that is not there never fires.
func TestFatesZeroConfigInert(t *testing.T) {
	for _, p := range []float64{0, 1} {
		a, b := Pipe(Config{Seed: 5, SuccessProb: p}, Config{Seed: 5, SuccessProb: p})
		a.Close()
		b.Close()
		if a.loss != (chance{}) || b.loss != (chance{}) {
			t.Errorf("SuccessProb %v: a loss stream was seeded", p)
		}
	}
	for i, c := range []chance{{}, newChance(5, 0)} {
		for range 1000 {
			if c.draw() {
				t.Fatalf("stream %d fired at probability 0", i)
			}
		}
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func TestUDPListenerDialerRoundTrip(t *testing.T) {
	cfg := Config{Seed: 31, SuccessProb: 0.85}
	ln, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	acceptCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		acceptCh <- c
	}()

	dial, err := Dialer(cfg)
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}
	a, err := dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer a.Close()
	// The listener only learns of the peer from its first datagram.
	if _, err := a.Write([]byte("hello over udp")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	var b net.Conn
	select {
	case b = <-acceptCh:
	case <-time.After(5 * time.Second):
		t.Fatal("accept timed out")
	}
	defer b.Close()
	buf := make([]byte, 14)
	if _, err := io.ReadFull(b, buf); err != nil || string(buf) != "hello over udp" {
		t.Fatalf("server read: %v %q", err, buf)
	}
	testRoundTrip(t, a, b, 8<<10, 4)

	// Lossy both ways over a real socket: counters still near 1/p.
	s := a.(*Conn).Stats()
	ratio := float64(s.TxAttemptBytes) / float64(s.TxDeliveredBytes)
	if math.Abs(ratio-1/0.85) > 0.2 {
		t.Errorf("attempts/delivered over UDP = %.3f, want ≈ %.3f", ratio, 1/0.85)
	}
}

func TestUDPListenerClosePendingConns(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dial, _ := Dialer(Config{})
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.Write([]byte("wake"))
	time.Sleep(20 * time.Millisecond)
	if err := ln.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrTransport) {
		t.Fatalf("accept after close: %v", err)
	}
}
