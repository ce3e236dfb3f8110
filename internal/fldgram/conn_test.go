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

func TestConnDupAndReorder(t *testing.T) {
	cfg := Config{Seed: 5, DupProb: 0.2, ReorderProb: 0.1, RTO: 20 * time.Millisecond}
	a, b := Pipe(cfg, cfg)
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 8<<10, 6)

	sa, sb := a.Stats(), b.Stats()
	if sa.RxDupPackets+sb.RxDupPackets == 0 {
		t.Error("expected duplicate deliveries with DupProb=0.2")
	}
	// Reordering must never corrupt or reorder the stream (asserted by
	// testRoundTrip); strays ahead of the frontier are dropped and retried.
	if sa.RxInvalidPackets+sb.RxInvalidPackets != 0 {
		t.Errorf("invalid packets on a corruption-free link: %d/%d",
			sa.RxInvalidPackets, sb.RxInvalidPackets)
	}
}

func TestConnAckLossRecovers(t *testing.T) {
	cfg := Config{Seed: 3, AckSuccessProb: 0.6, RTO: 10 * time.Millisecond}
	a, b := Pipe(cfg, cfg)
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
		{"lossy", Config{SuccessProb: 0.9, DupProb: 0.1, ReorderProb: 0.1}, true},
		{"mtu too small", Config{MTU: 63}, false},
		{"mtu too large", Config{MTU: maxMTU + 1}, false},
		{"negative rto", Config{RTO: -time.Second}, false},
		{"negative attempts", Config{MaxAttempts: -1}, false},
		{"success prob > 1", Config{SuccessProb: 1.5}, false},
		{"negative success prob", Config{SuccessProb: -0.1}, false},
		{"dup prob 1", Config{DupProb: 1}, false},
		{"reorder prob 1", Config{ReorderProb: 1}, false},
		{"NaN success prob", Config{SuccessProb: math.NaN()}, false},
		{"NaN ack success prob", Config{AckSuccessProb: math.NaN()}, false},
		{"NaN dup prob", Config{DupProb: math.NaN()}, false},
		{"NaN reorder prob", Config{ReorderProb: math.NaN()}, false},
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

// TestFatesDeterministic pins the first 2 000 fates of two streams, one byte
// (drop | dup<<1 | hold<<2) per packet, to digests taken from the packet
// injector these fates were moved out of: a full (loss, dup, reorder)
// stream, and the loss-only data stream of conn 0 at seed 1 and p = 0.9.
func TestFatesDeterministic(t *testing.T) {
	for _, tc := range []struct {
		f    *fates
		want string
	}{
		{newFates(77, 0.2, 0.1, 0.05), "b30f3a4c0a68a6fcdaedf492cc65f8976ca36fd4e7e0e85e50c33e145af67ed6"},
		{newFates(mixSeed(1, 0, 1), 0.1, 0, 0), "11c1356747ddd9148193519adf6c500b335f1b7cddcb9acbba65556068b30907"},
	} {
		h := sha256.New()
		for range 2000 {
			f := tc.f.next()
			h.Write([]byte{b2u(f.drop) | b2u(f.dup)<<1 | b2u(f.hold)<<2})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("fates digest %s, want %s", got, tc.want)
		}
	}
}

// TestFatesRates checks each stream's rate. A drop clears dup and hold, so
// their marginal rates are p·(1−loss).
func TestFatesRates(t *testing.T) {
	const n = 20000
	loss, dup, reorder := 0.3, 0.15, 0.1
	fs := newFates(3, loss, dup, reorder)
	var drops, dups, holds int
	for range n {
		f := fs.next()
		if f.drop && (f.dup || f.hold) {
			t.Fatal("a dropped packet is also duplicated or held")
		}
		drops += int(b2u(f.drop))
		dups += int(b2u(f.dup))
		holds += int(b2u(f.hold))
	}
	for _, r := range []struct {
		name      string
		got, want float64
	}{
		{"drop", float64(drops) / n, loss},
		{"dup", float64(dups) / n, dup * (1 - loss)},
		{"hold", float64(holds) / n, reorder * (1 - loss)},
	} {
		if math.Abs(r.got-r.want) > 0.02 {
			t.Errorf("%s rate %.3f, want ≈ %.3f", r.name, r.got, r.want)
		}
	}
}

func TestFatesZeroConfigInert(t *testing.T) {
	f := newFates(5, 0, 0, 0)
	if f != nil {
		t.Fatal("all-zero probabilities must give a nil *fates")
	}
	for i := range 1000 {
		if pf := f.next(); pf != (packetFate{}) {
			t.Fatalf("packet %d: zero config injected %+v", i, pf)
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
