package fldgram

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedLink loses the datagrams a script names on their way out — the
// carrier loss the seeded injector never produces, since its drops are
// decided before the packet reaches the link.
type scriptedLink struct {
	PacketLink
	// drop is asked about the nth (from 0) outgoing packet of each type.
	drop func(typ byte, nth int) bool

	mu   sync.Mutex
	seen map[byte]int
}

func (l *scriptedLink) WritePacket(p []byte) error {
	l.mu.Lock()
	if l.seen == nil {
		l.seen = make(map[byte]int)
	}
	nth := l.seen[p[0]]
	l.seen[p[0]]++
	l.mu.Unlock()
	if l.drop(p[0], nth) {
		return nil
	}
	return l.PacketLink.WritePacket(p)
}

// scriptedPipe is Pipe with end a's outgoing packets filtered by dropA and
// end b's by dropB (nil: lossless).
func scriptedPipe(cfg Config, dropA, dropB func(typ byte, nth int) bool) (*Conn, *Conn) {
	keep := func(byte, int) bool { return false }
	if dropA == nil {
		dropA = keep
	}
	if dropB == nil {
		dropB = keep
	}
	la, lb := pipeLinks()
	return newConn(&scriptedLink{PacketLink: la, drop: dropA}, cfg, 0),
		newConn(&scriptedLink{PacketLink: lb, drop: dropB}, cfg, 1)
}

// writeAndDrain writes frame on a while b reads it back, and returns how
// long the Write took.
func writeAndDrain(t *testing.T, a, b *Conn, frame []byte) time.Duration {
	t.Helper()
	got := make([]byte, len(frame))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(b, got)
		done <- err
	}()
	start := time.Now()
	if _, err := a.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	took := time.Since(start)
	if err := <-done; err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("frame corrupted in transit")
	}
	return took
}

// fragments is the number of data packets a Write of size bytes becomes at
// the default MTU, and wantAcks the ACKs the count-based policy owes it.
func fragments(size int) int { return (size + DefaultMTU - headerLen - 1) / (DefaultMTU - headerLen) }
func wantAcks(size int) int64 {
	return int64((fragments(size) + window/2 - 1) / (window / 2))
}

// TestWindowCarrierLoss scripts genuine carrier loss — a data packet in the
// middle of a frame, the last one, a cumulative ACK, the final ACK — and
// pins how each is repaired: a gap the receiver can see costs one round
// trip and one go-back, a loss at the tail costs one RTO, a lost mid-frame
// ACK costs nothing because the next one is cumulative.
func TestWindowCarrierLoss(t *testing.T) {
	const size = 200 << 10
	n := fragments(size)
	lastAck := int(wantAcks(size)) - 1
	first := func(typ byte, k int) func(byte, int) bool {
		return func(got byte, nth int) bool { return got == typ && nth == k }
	}
	cases := []struct {
		name         string
		rto          time.Duration
		dropA, dropB func(byte, int) bool
		slow         bool // Write must have waited out the RTO
		goBacks      int64
	}{
		{"data mid-frame", 2 * time.Second, first(pktData, 20), nil, false, 1},
		{"data at window edge", 2 * time.Second, first(pktData, window-1), nil, false, 1},
		{"last data packet", 50 * time.Millisecond, first(pktData, n-1), nil, true, 1},
		{"cumulative ack", 2 * time.Second, nil, first(pktAck, 5), false, 0},
		{"final ack", 50 * time.Millisecond, nil, first(pktAck, lastAck), true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := scriptedPipe(Config{RTO: tc.rto}, tc.dropA, tc.dropB)
			defer a.Close()
			defer b.Close()
			took := writeAndDrain(t, a, b, fill(size, 9))
			if tc.slow && took < tc.rto {
				t.Errorf("write took %v, want at least the RTO %v: nothing tells the sender of a tail loss", took, tc.rto)
			}
			if !tc.slow && took > tc.rto/4 {
				t.Errorf("write took %v with RTO %v: recovery waited for the timer", took, tc.rto)
			}
			sa, sb := a.Stats(), b.Stats()
			if sa.GoBacks != tc.goBacks {
				t.Errorf("GoBacks = %d, want %d", sa.GoBacks, tc.goBacks)
			}
			if extra := sa.TxAttempts - sa.TxDelivered; extra < tc.goBacks || extra > tc.goBacks*window {
				t.Errorf("%d retransmissions for %d go-backs at window %d", extra, tc.goBacks, window)
			}
			if sa.TxDelivered != int64(n) || sb.RxDelivered != int64(n) {
				t.Errorf("delivered tx %d rx %d, want %d", sa.TxDelivered, sb.RxDelivered, n)
			}
		})
	}
}

// TestWindowAckPolicy pins the count-based ACK policy at the window's
// edges: the receiver owes exactly one ACK per window/2 in-order packets
// plus one for a frame end that falls between, whatever the injected loss,
// and a healthy carrier shows no duplicate, no stray and no go-back.
func TestWindowAckPolicy(t *testing.T) {
	payload := DefaultMTU - headerLen
	for _, size := range []int{1, payload, payload + 1, window * payload, window*payload + 1, 70000} {
		for _, p := range []float64{1, 0.7} {
			t.Run(fmt.Sprintf("%dB/p=%v", size, p), func(t *testing.T) {
				a, b := Pipe(Config{Seed: 17, SuccessProb: p}, Config{})
				defer a.Close()
				defer b.Close()
				writeAndDrain(t, a, b, fill(size, 3))
				sa, sb := a.Stats(), b.Stats()
				if sb.AckPackets != wantAcks(size) {
					t.Errorf("AckPackets = %d, want %d for %d fragments", sb.AckPackets, wantAcks(size), fragments(size))
				}
				if sb.RxDupPackets != 0 || sb.RxAheadPackets != 0 || sa.GoBacks != 0 {
					t.Errorf("dup %d ahead %d go-backs %d on a healthy carrier", sb.RxDupPackets, sb.RxAheadPackets, sa.GoBacks)
				}
				if sa.TxDelivered != int64(fragments(size)) {
					t.Errorf("TxDelivered = %d, want %d", sa.TxDelivered, fragments(size))
				}
				if p == 1 && sa.TxAttempts != sa.TxDelivered {
					t.Errorf("%d attempts for %d fragments on a lossless link", sa.TxAttempts, sa.TxDelivered)
				}
			})
		}
	}
}

// TestWindowDupReorderNoStorm: duplicates earn a plain re-ACK, which must
// never send the sender back, and a reordered pair costs at most one
// go-back of its flight — so retransmissions stay a fraction of the stream.
func TestWindowDupReorderNoStorm(t *testing.T) {
	cfg := Config{Seed: 5, DupProb: 0.2, ReorderProb: 0.1, RTO: 20 * time.Millisecond}
	a, b := Pipe(cfg, cfg)
	defer a.Close()
	defer b.Close()
	testRoundTrip(t, a, b, 64<<10, 6)
	for name, s := range map[string]Stats{"a": a.Stats(), "b": b.Stats()} {
		if s.RxDupPackets == 0 {
			t.Errorf("%s: no duplicates seen with DupProb=0.2", name)
		}
		if s.TxAttempts > 2*s.TxDelivered {
			t.Errorf("%s: %d attempts for %d fragments (%d go-backs): go-back storm", name, s.TxAttempts, s.TxDelivered, s.GoBacks)
		}
	}
}

// TestAckBeyondSentIgnored: a CRC-valid ACK for a fragment that was never
// transmitted must not complete a Write — the peer absorbed nothing.
func TestAckBeyondSentIgnored(t *testing.T) {
	payload := DefaultMTU - headerLen
	cases := []struct {
		name    string
		seq     uint32 // of the forged ACK; 2 fragments are in flight
		flags   byte
		invalid int64
		done    bool // the Write completes
	}{
		{"future", 2, 0, 1, false},
		{"far future", 1 << 30, 0, 1, false},
		{"gap-flagged future", 5, flagGap, 1, false},
		{"stale", ^uint32(0), 0, 0, false},
		{"partial", 0, 0, 0, false},
		{"exact frontier", 1, 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The peer end is a bare link: nothing acknowledges on its own.
			la, lb := pipeLinks()
			a := newConn(la, Config{RTO: time.Hour}, 0)
			defer a.Close()
			defer lb.Close()
			done := make(chan error, 1)
			go func() {
				_, err := a.Write(make([]byte, 2*payload))
				done <- err
			}()
			buf := make([]byte, DefaultMTU)
			for i := 0; i < 2; i++ { // both fragments are on the carrier
				if _, err := lb.ReadPacket(buf); err != nil {
					t.Fatalf("read fragment %d: %v", i, err)
				}
			}
			lb.WritePacket(encodePacket(nil, pktAck, tc.flags, tc.seq, 0, nil))
			// An ACK the sender takes is visible in its counters at once; wait
			// for this one to be processed by sending a marker after it.
			lb.WritePacket([]byte("not a packet"))
			deadline := time.Now().Add(5 * time.Second)
			for a.Stats().RxInvalidPackets < tc.invalid+1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := a.Stats().RxInvalidPackets - 1; got != tc.invalid {
				t.Errorf("RxInvalidPackets = %d, want %d", got, tc.invalid)
			}
			select {
			case err := <-done:
				if !tc.done {
					t.Fatalf("write completed (err=%v) on a forged ACK of seq %d", err, tc.seq)
				}
				if err != nil {
					t.Fatalf("write: %v", err)
				}
			case <-time.After(50 * time.Millisecond):
				if tc.done {
					t.Fatal("write still blocked after a valid ACK of everything sent")
				}
			}
			if s := a.Stats(); s.GoBacks != 0 {
				t.Errorf("GoBacks = %d after a forged ACK", s.GoBacks)
			}
		})
	}
}

// TestCloseReleasesConn: Close must disarm the deadline timers. An armed
// time.AfterFunc keeps its callback — and through it the Conn, its 64 KiB
// receive buffer and its reassembly buffer — reachable from the runtime's
// timer heap until it fires, which for flnet is the round timeout. A Conn
// points at itself (cond.L, the timer callbacks), so a finalizer on it would
// never run; one on the Meter only it references stands in.
func TestCloseReleasesConn(t *testing.T) {
	const conns = 8
	var freed atomic.Int32
	for i := 0; i < conns; i++ {
		ma, mb := &Meter{}, &Meter{}
		runtime.SetFinalizer(ma, func(*Meter) { freed.Add(1) })
		runtime.SetFinalizer(mb, func(*Meter) { freed.Add(1) })
		a, b := Pipe(Config{Meter: ma}, Config{Meter: mb})
		// A Read that waits once under a far deadline arms rdTimer; a Write
		// that waits for its ACK arms ackTimer.
		a.SetDeadline(time.Now().Add(time.Hour))
		b.SetDeadline(time.Now().Add(time.Hour))
		echoed := make(chan struct{})
		go func() {
			defer close(echoed)
			buf := make([]byte, 1)
			b.Read(buf)
			b.Write(buf)
		}()
		time.Sleep(time.Millisecond) // let the Read block
		a.Write([]byte{1})
		a.Read(make([]byte, 1))
		<-echoed
		a.Close()
		b.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < 2*conns && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got < 2*conns {
		t.Fatalf("%d of %d closed Conns collected: armed timers still pin the rest", got, 2*conns)
	}
}

// TestUDPFleetNoCarrierLoss is the overflow guard: every peer of a Listener
// sends into one socket, so fleet × window datagrams must fit its receive
// buffer or injected loss turns into real loss (and same-seed runs stop
// being identical). Eight dialers write 64 KiB frames at the same moment,
// fifty times; no sender may go back and no receiver may see a stray.
func TestUDPFleetNoCarrierLoss(t *testing.T) {
	const fleet, rounds, size = 8, 50, 64 << 10
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	dial, err := Dialer(Config{})
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}

	var all []*Conn
	edges := make([]net.Conn, fleet)
	for i := range edges {
		c, err := dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		// The listener learns of a peer from its first datagram.
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("hello %d: %v", i, err)
		}
		c.SetDeadline(time.Now().Add(time.Minute)) // a failure must not hang the test
		edges[i] = c
		all = append(all, c.(*Conn))
	}
	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		s, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		defer s.Close()
		s.SetDeadline(time.Now().Add(time.Minute))
		all = append(all, s.(*Conn))
		wg.Add(1)
		go func() { // drain the hello and every round's frame, answer each round
			defer wg.Done()
			buf := make([]byte, size)
			if _, err := io.ReadFull(s, buf[:1]); err != nil {
				t.Errorf("server hello: %v", err)
				return
			}
			for r := 0; r < rounds; r++ {
				if _, err := io.ReadFull(s, buf); err != nil {
					t.Errorf("server read round %d: %v", r, err)
					return
				}
				if _, err := s.Write(buf[:1]); err != nil {
					t.Errorf("server write round %d: %v", r, err)
					return
				}
			}
		}()
	}

	frame := fill(size, 4)
	for r := 0; r < rounds; r++ {
		var round sync.WaitGroup
		start := make(chan struct{})
		for _, c := range edges {
			round.Add(1)
			go func() {
				defer round.Done()
				<-start
				if _, err := c.Write(frame); err != nil {
					t.Errorf("round %d write: %v", r, err)
					return
				}
				if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
					t.Errorf("round %d reply: %v", r, err)
				}
			}()
		}
		close(start)
		round.Wait()
		if t.Failed() {
			return
		}
	}
	wg.Wait()

	var goBacks, ahead, dup int64
	for _, c := range all {
		s := c.Stats()
		goBacks += s.GoBacks
		ahead += s.RxAheadPackets
		dup += s.RxDupPackets
	}
	if goBacks != 0 || ahead != 0 || dup != 0 {
		t.Fatalf("carrier loss on loopback: %d go-backs, %d strays, %d duplicates — fleet × window overflowed the socket buffer", goBacks, ahead, dup)
	}
}
