package fldgram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// bothWays runs f with runs and segmentation offload (where the kernel
// takes it), then packet by packet: one datagram per syscall.
func bothWays(t *testing.T, f func(t *testing.T)) {
	for _, per := range []bool{false, true} {
		t.Run(fmt.Sprintf("perPacket=%v", per), func(t *testing.T) {
			defer func(old bool) { perPacket = old }(perPacket)
			perPacket = per
			f(t)
		})
	}
}

// udpPair dials a fresh Listener on addr and returns the dialer's Conn and
// the one the Listener accepted, both closed with the test.
func udpPair(t *testing.T, addr string, cfg Config) (a, b *Conn) {
	t.Helper()
	ln, err := Listen(addr, cfg)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	t.Cleanup(func() { ln.Close() })
	dial, err := Dialer(cfg)
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	a = c.(*Conn)
	t.Cleanup(func() { a.Close() })
	a.SetDeadline(time.Now().Add(time.Minute)) // a failure must not hang the test
	// The listener learns of a peer from its first datagram.
	if _, err := a.Write([]byte{1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	b = s.(*Conn)
	t.Cleanup(func() { b.Close() })
	b.SetDeadline(time.Now().Add(time.Minute))
	if _, err := b.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	return a, b
}

// TestUDPOffloadMatchesPerPacket: runs change how many syscalls carry the
// packets, never which packets go. Over real UDP at 10 % loss, with a
// carrier that duplicates, the same seed and frames give identical counters
// with runs and packet by packet. With reordering too, only the delivery
// counters must agree: the go-back a held packet provokes lands wherever
// the sender has got to when the gap ACK arrives, which is timing, not
// seed, in either mode.
func TestUDPOffloadMatchesPerPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		f    faults
	}{
		{"dup", Config{Seed: 13, SuccessProb: 0.9}, faults{dup: 0.05}},
		{"dup+reorder", Config{Seed: 13, SuccessProb: 0.9, RTO: 20 * time.Millisecond}, faults{dup: 0.05, reorder: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []Stats
			bothWays(t, func(t *testing.T) {
				a, b := udpFaultPair(t, tc.cfg, tc.f)
				a.SetDeadline(time.Now().Add(time.Minute)) // a failure must not hang the test
				b.SetDeadline(time.Now().Add(time.Minute))
				testRoundTrip(t, a, b, 64<<10, 5)
				sa, sb := a.Stats(), b.Stats()
				if tc.f.reorder > 0 { // keep what timing cannot move
					sa = Stats{TxDelivered: sa.TxDelivered, TxDeliveredBytes: sa.TxDeliveredBytes, RxDelivered: sa.RxDelivered, RxDeliveredBytes: sa.RxDeliveredBytes}
					sb = Stats{TxDelivered: sb.TxDelivered, TxDeliveredBytes: sb.TxDeliveredBytes, RxDelivered: sb.RxDelivered, RxDeliveredBytes: sb.RxDeliveredBytes}
				} else if sa.GoBacks+sb.GoBacks+sa.RxAheadPackets+sb.RxAheadPackets != 0 {
					t.Fatalf("carrier loss on loopback: a %+v b %+v", sa, sb)
				}
				got = append(got, sa, sb)
			})
			if len(got) == 4 && (got[0] != got[2] || got[1] != got[3]) {
				t.Fatalf("runs and single packets disagree:\n a %+v\nvs %+v\n b %+v\nvs %+v", got[0], got[2], got[1], got[3])
			}
		})
	}
}

// recordingLink remembers every data packet sent through it, in order.
type recordingLink struct {
	PacketLink
	mu   sync.Mutex
	data []byte
	runs int // WritePackets calls carrying data
}

func (l *recordingLink) WritePackets(run []byte, size int) error {
	l.mu.Lock()
	if run[0] == pktData {
		l.runs++
		for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
			l.data = append(l.data, p...)
		}
	}
	l.mu.Unlock()
	return l.PacketLink.WritePackets(run, size)
}

// TestPipeRunsMatchPerPacket: through a Pipe at 10 % loss whose carrier
// duplicates, the data packets one end puts on the carrier are the same
// bytes in the same order whether Write hands them over in runs or one by
// one — and in runs it needs fewer hand-overs.
func TestPipeRunsMatchPerPacket(t *testing.T) {
	cfg, f := Config{Seed: 8, SuccessProb: 0.9}, faults{dup: 0.1}
	var sent [][]byte
	var runs []int
	bothWays(t, func(t *testing.T) {
		la, lb := pipeLinks()
		rec := &recordingLink{PacketLink: la}
		a, b := newConn(newFaultLink(rec, cfg.Seed, 0, f), cfg, 0), newConn(newFaultLink(lb, cfg.Seed, 1, f), cfg, 1)
		defer a.Close()
		defer b.Close()
		testRoundTrip(t, a, b, 100<<10, 4)
		rec.mu.Lock()
		sent, runs = append(sent, rec.data), append(runs, rec.runs)
		rec.mu.Unlock()
	})
	if len(sent) != 2 {
		return
	}
	if !bytes.Equal(sent[0], sent[1]) {
		t.Fatalf("runs sent %d data bytes, single packets %d, and they differ", len(sent[0]), len(sent[1]))
	}
	if runs[0] >= runs[1] {
		t.Fatalf("%d hand-overs in runs, %d packet by packet", runs[0], runs[1])
	}
}

// TestUDPCoalescedFirstFlight: a new peer's first flight may reach the
// listener as one coalesced datagram. It must open exactly one Conn, and
// that Conn must deliver the whole frame; checking the datagram rather than
// its first packet would refuse it.
func TestUDPCoalescedFirstFlight(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	uc, err := net.DialUDP("udp", nil, ln.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("raw socket: %v", err)
	}
	defer uc.Close()
	const size = 200
	frame := fill(3*(size-headerLen)+17, 5)
	var run []byte
	var cum uint64
	for i := 0; i*(size-headerLen) < len(frame); i++ {
		frag := frame[i*(size-headerLen) : min((i+1)*(size-headerLen), len(frame))]
		flags := byte(0)
		if (i+1)*(size-headerLen) >= len(frame) {
			flags = flagFrameEnd
		}
		cum += uint64(headerLen + len(frag))
		run = encodePacket(run, pktData, flags, uint32(i), cum, frag)
	}
	// One send: coalesced on the wire where the kernel takes UDP_SEGMENT
	// (and kept so by the listener's UDP_GRO), four datagrams elsewhere.
	if err := newUDPSocket(uc, size).writePackets(run, size); err != nil {
		t.Fatalf("send run: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if s, err := ln.Accept(); err == nil {
			accepted <- s
		}
	}()
	var s net.Conn
	select {
	case s = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("a coalesced first flight opened no Conn")
	}
	defer s.Close()
	s.SetDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(frame))
	if _, err := readFull(s.(*Conn), got); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("frame not delivered: %v", err)
	}
	if created, peers := listenerState(ln); created != 1 || peers != 1 {
		t.Fatalf("one coalesced flight opened %d conns, %d peers", created, peers)
	}
}

// TestUDPLargeMTU round-trips a 200 KiB frame over loopback UDP at MTUs
// where a run meets its byte cap: 9000 (seven packets to a run) and the
// UDP maximum (runs of one).
func TestUDPLargeMTU(t *testing.T) {
	for _, mtu := range []int{9000, maxMTU} {
		t.Run(fmt.Sprint(mtu), func(t *testing.T) {
			a, b := udpPair(t, "127.0.0.1:0", Config{MTU: mtu, Seed: 3, SuccessProb: 0.9})
			testRoundTrip(t, a, b, 200<<10, 2)
		})
	}
}

// TestUDPOffloadFallback: over IPv6 loopback a packet at the UDP maximum
// with its 48 header bytes exceeds the route's MTU, so the kernel refuses
// it at that segment size; the links must turn offload off and deliver it
// IP-fragmented.
func TestUDPOffloadFallback(t *testing.T) {
	pc, err := net.ListenPacket("udp6", "[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	pc.Close()
	a, b := udpPair(t, "[::1]:0", Config{MTU: maxMTU})
	testRoundTrip(t, a, b, 200<<10, 2)
	if runtime.GOOS != "linux" {
		return
	}
	if seg := a.link.(*udpLink).uc.seg.Load(); seg != 0 {
		t.Errorf("dialer still segments at %d after a refused send", seg)
	}
	if seg := b.link.(*udpLink).uc.seg.Load(); seg != 0 {
		t.Errorf("listener's peer socket still segments at %d after a refused send", seg)
	}
}

// TestGROSizeHostile: a control buffer that is not one well-formed UDP_GRO
// message means one packet, and parsing it never reads out of bounds.
func TestGROSizeHostile(t *testing.T) {
	valid := groMessage(1180)
	want := 0
	if runtime.GOOS == "linux" {
		want = 1180
	}
	if got := groSize(valid); got != want {
		t.Fatalf("well-formed UDP_GRO message: size %d, want %d", got, want)
	}
	for name, oob := range hostileOOB() {
		if got := groSize(oob); got != 0 {
			t.Errorf("%s: size %d, want 0 (one packet)", name, got)
		}
	}
}

// groMessage lays out one UDP_GRO control message as Linux does: a cmsghdr
// (a size_t length, then level SOL_UDP and type UDP_GRO) and an int,
// padded to the word.
func groMessage(size int) []byte {
	const word = bits.UintSize / 8
	const hdr = word + 8
	b := make([]byte, hdr+(4+word-1)&^(word-1))
	putCmsgLen(b, hdr+4)
	binary.NativeEndian.PutUint32(b[word:], 17)
	binary.NativeEndian.PutUint32(b[word+4:], 104)
	binary.NativeEndian.PutUint32(b[hdr:], uint32(size))
	return b
}

func putCmsgLen(b []byte, l int) {
	if bits.UintSize == 64 {
		binary.NativeEndian.PutUint64(b, uint64(l))
	} else {
		binary.NativeEndian.PutUint32(b, uint32(l))
	}
}

// hostileOOB returns control buffers that are not one well-formed UDP_GRO
// message, each of which must read as one packet.
func hostileOOB() map[string][]byte {
	const word = bits.UintSize / 8
	const hdr = word + 8
	edit := func(f func(b []byte) []byte) []byte { return f(groMessage(1180)) }
	return map[string][]byte{
		"empty":            nil,
		"short":            edit(func(b []byte) []byte { return b[:hdr-1] }),
		"len below header": edit(func(b []byte) []byte { putCmsgLen(b, hdr-1); return b }),
		"len zero":         edit(func(b []byte) []byte { putCmsgLen(b, 0); return b }),
		"len past end":     edit(func(b []byte) []byte { putCmsgLen(b, len(b)+1); return b }),
		"data cut short":   edit(func(b []byte) []byte { putCmsgLen(b, hdr+2); return b }),
		"misaligned":       edit(func(b []byte) []byte { return append([]byte{0}, b...) }),
		"other type":       edit(func(b []byte) []byte { binary.NativeEndian.PutUint32(b[word+4:], 103); return b }),
		"negative size":    edit(func(b []byte) []byte { binary.NativeEndian.PutUint32(b[hdr:], 1<<31); return b }),
	}
}
