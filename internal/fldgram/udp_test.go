package fldgram

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// listenerState reports how many Conns the listener has created and how
// many peers its mux currently holds.
func listenerState(l *Listener) (created, peers int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next, len(l.peers)
}

// TestUDPListenerIgnoresStrayDatagrams sends, each from a fresh socket, the
// first datagrams no dialer opens a stream with: garbage, a valid FIN, a
// valid ACK and a data packet past sequence 0. None may become a Conn. A
// real dialer's first write, sent after them into the same socket queue,
// is then the first and only Conn Accept returns.
func TestUDPListenerIgnoresStrayDatagrams(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	raddr := ln.Addr().(*net.UDPAddr)
	for _, stray := range [][]byte{
		[]byte("garbage"),
		encodePacket(nil, pktFin, 0, 3, 0, nil),
		encodePacket(nil, pktAck, 0, 3, 0, nil),
		encodePacket(nil, pktData, 0, 5, 6, []byte("stray!")),
	} {
		uc, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatalf("raw socket: %v", err)
		}
		defer uc.Close()
		if _, err := uc.Write(stray); err != nil {
			t.Fatalf("send stray: %v", err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if created, peers := listenerState(ln); created != 0 || peers != 0 || len(ln.acceptCh) != 0 {
		t.Fatalf("stray datagrams opened %d conns (%d peers, %d awaiting Accept)", created, peers, len(ln.acceptCh))
	}

	dial, err := Dialer(Config{})
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer s.Close()
	if got, want := s.RemoteAddr().String(), c.LocalAddr().String(); got != want {
		t.Fatalf("accepted a conn from %s, want the dialer at %s", got, want)
	}
	if created, peers := listenerState(ln); created != 1 || peers != 1 {
		t.Fatalf("after one dial: %d conns created, %d peers, want 1 and 1", created, peers)
	}
}

// TestUDPListenerAcceptsEachDialerOnce runs a fleet's life cycle over real
// UDP: eight dialers join, exchange frames and close. The coordinator side
// closes first, so both of each dialer's FINs reach an address the
// listener has already forgotten. The listener must have opened exactly
// eight Conns.
func TestUDPListenerAcceptsEachDialerOnce(t *testing.T) {
	const fleet = 8
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	dial, err := Dialer(Config{})
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}
	const frame, count = 4 << 10, 3
	edges := make([]net.Conn, fleet)
	var serve, exchange sync.WaitGroup
	for i := range edges {
		c, err := dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(time.Minute)) // a failure must not hang the test
		edges[i] = c
		exchange.Add(1)
		go func() {
			defer exchange.Done()
			buf := make([]byte, frame)
			for r := 0; r < count; r++ {
				if _, err := c.Write(fill(frame, uint64(r)+1)); err != nil {
					t.Errorf("edge %d write %d: %v", i, r, err)
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					t.Errorf("edge %d read %d: %v", i, r, err)
					return
				}
			}
		}()
	}
	for i := 0; i < fleet; i++ {
		s, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
		s.SetDeadline(time.Now().Add(time.Minute))
		serve.Add(1)
		go func() {
			defer serve.Done()
			echo(t, s, frame, count)
			s.Close()
		}()
	}
	exchange.Wait()
	serve.Wait()
	for _, c := range edges {
		c.Close()
	}
	time.Sleep(100 * time.Millisecond)
	if created, peers := listenerState(ln); created != fleet || peers != 0 || len(ln.acceptCh) != 0 {
		t.Fatalf("%d dialers: listener created %d conns, holds %d peers, %d await Accept", fleet, created, peers, len(ln.acceptCh))
	}
}

// TestUDPPeerSocketHandsBackForeignDatagrams: a listener's peer socket is
// bound before it is connected, and the kernel may queue another source's
// datagram on it in between. The link must hand that datagram to the
// listener's dispatch, where a first packet opens its source's Conn, and
// return only its own peer's. An unconnected socket stands in for one
// caught between bind and connect.
func TestUDPPeerSocketHandsBackForeignDatagrams(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("peer socket: %v", err)
	}
	var peer, foreign *net.UDPConn
	for _, c := range []**net.UDPConn{&peer, &foreign} {
		if *c, err = net.DialUDP("udp", nil, uc.LocalAddr().(*net.UDPAddr)); err != nil {
			t.Fatalf("raw socket: %v", err)
		}
		defer (*c).Close()
	}
	link := &udpLink{uc: newUDPSocket(uc, DefaultMTU), l: ln, peer: peer.LocalAddr().(*net.UDPAddr).AddrPort()}
	defer link.Close()

	hello := encodePacket(nil, pktData, flagFrameEnd, 0, 25, []byte("hello"))
	mine := encodePacket(nil, pktData, flagFrameEnd, 0, 24, []byte("mine"))
	if _, err := foreign.Write(hello); err != nil {
		t.Fatalf("foreign send: %v", err)
	}
	if _, err := peer.Write(mine); err != nil {
		t.Fatalf("peer send: %v", err)
	}
	link.uc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, maxMTU+1)
	n, _, err := link.ReadPackets(buf)
	if err != nil || !bytes.Equal(buf[:n], mine) {
		t.Fatalf("peer link read %q (%v), want its own peer's packet", buf[:n], err)
	}
	if created, peers := listenerState(ln); created != 1 || peers != 1 || len(ln.acceptCh) != 1 {
		t.Fatalf("the foreign datagram opened %d conns (%d peers, %d awaiting Accept), want 1", created, peers, len(ln.acceptCh))
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer s.Close()
	if got, want := s.RemoteAddr().String(), foreign.LocalAddr().String(); got != want {
		t.Fatalf("accepted a conn from %s, want the foreign source %s", got, want)
	}
	s.SetDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, 5)
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "hello" {
		t.Fatalf("foreign source's conn read %q (%v), want its datagram", got, err)
	}
}

// TestUDPListenerCloseKeepsAcceptedConns: as with net.TCPListener, closing
// the Listener stops Accept but leaves the Conns it accepted working; their
// owner closes them.
func TestUDPListenerCloseKeepsAcceptedConns(t *testing.T) {
	ln, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dial, err := Dialer(Config{})
	if err != nil {
		t.Fatalf("dialer: %v", err)
	}
	c, err := dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute)) // a failure must not hang the test
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	s, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	defer s.Close()
	s.SetDeadline(time.Now().Add(time.Minute))
	if _, err := io.ReadFull(s, make([]byte, 1)); err != nil {
		t.Fatalf("read hello: %v", err)
	}
	if err := ln.Close(); err != nil {
		t.Fatalf("close listener: %v", err)
	}
	testRoundTrip(t, c, s, 64<<10, 3)
}
