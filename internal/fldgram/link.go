package fldgram

import (
	"fmt"
	"net"
	"sync"
)

// PacketLink is a raw unreliable datagram carrier under one Conn: it moves
// whole packets with no delivery, ordering, or integrity guarantees. The
// Conn's ARQ supplies all three. ReadPacket blocks until a packet or an
// error; Close must unblock it.
type PacketLink interface {
	// WritePacket sends one datagram. Best-effort: a full carrier may drop
	// it silently (the ARQ retransmits).
	WritePacket(p []byte) error
	// ReadPacket copies the next datagram into buf and returns its length.
	// Datagrams longer than buf are truncated (and then fail the CRC).
	ReadPacket(buf []byte) (int, error)
	Close() error
	LocalAddr() net.Addr
	RemoteAddr() net.Addr
}

// pipeAddr is the address of an in-memory pipe endpoint.
type pipeAddr struct{ name string }

func (a pipeAddr) Network() string { return "fldgram.pipe" }
func (a pipeAddr) String() string  { return a.name }

// pktBufCap is the capacity class of pooled queue buffers: room for any
// datagram at the default MTU. A larger datagram gets a buffer of its own.
const pktBufCap = 2048

// pktPool recycles the buffers datagrams wait in on a carrier's queue (a
// Pipe direction, or one peer of a Listener), sized to the datagram rather
// than to the largest one a socket could deliver.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 0, pktBufCap)
	return &b
}}

// queuedPacket copies p into a queue buffer.
func queuedPacket(p []byte) *[]byte {
	if len(p) > pktBufCap {
		b := append([]byte(nil), p...)
		return &b
	}
	bp := pktPool.Get().(*[]byte)
	*bp = append((*bp)[:0], p...)
	return bp
}

// takePacket copies a queued datagram into buf and recycles its buffer.
func takePacket(bp *[]byte, buf []byte) int {
	n := copy(buf, *bp)
	if cap(*bp) == pktBufCap {
		pktPool.Put(bp)
	}
	return n
}

// chanLink is one direction pair of an in-memory packet pipe. The channel
// buffer stands in for the carrier's queue: a sender keeps at most window
// data packets and as many ACKs in flight, far below pipeQueueLen, so the
// buffer never fills in practice, but a full buffer drops the packet —
// datagram semantics, not backpressure.
type chanLink struct {
	in, out   chan *[]byte
	local     pipeAddr
	remote    pipeAddr
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  chan struct{}
}

// pipeQueueLen is the per-direction packet queue of a Pipe.
const pipeQueueLen = 512

// Pipe returns two connected datagram endpoints running entirely in
// memory, with each side configured independently (MTU, chaos, meter).
// Both configs are validated; Pipe panics on an invalid one, as this is a
// test/bench constructor.
func Pipe(cfgA, cfgB Config) (*Conn, *Conn) {
	for _, cfg := range []Config{cfgA, cfgB} {
		if err := cfg.Validate(); err != nil {
			panic(fmt.Sprintf("fldgram.Pipe: %v", err))
		}
	}
	la, lb := pipeLinks()
	return newConn(la, cfgA, 0), newConn(lb, cfgB, 1)
}

// pipeLinks returns the two ends of an in-memory carrier.
func pipeLinks() (la, lb *chanLink) {
	ab := make(chan *[]byte, pipeQueueLen)
	ba := make(chan *[]byte, pipeQueueLen)
	closedA := make(chan struct{})
	closedB := make(chan struct{})
	la = &chanLink{
		in: ba, out: ab,
		local: pipeAddr{"pipe:a"}, remote: pipeAddr{"pipe:b"},
		closed: closedA, peerDone: closedB,
	}
	lb = &chanLink{
		in: ab, out: ba,
		local: pipeAddr{"pipe:b"}, remote: pipeAddr{"pipe:a"},
		closed: closedB, peerDone: closedA,
	}
	return la, lb
}

func (l *chanLink) WritePacket(p []byte) error {
	// Two one-case polls, not one select: each compiles to a lock-free check.
	select {
	case <-l.closed:
		return errClosed
	default:
	}
	select {
	case <-l.peerDone:
		// Peer gone: the datagram would be lost on a real carrier too.
		return nil
	default:
	}
	pkt := queuedPacket(p)
	select {
	case l.out <- pkt:
	default:
		// Queue full: drop, like any saturated carrier.
		takePacket(pkt, nil)
	}
	return nil
}

func (l *chanLink) ReadPacket(buf []byte) (int, error) {
	// Poll first: a queued packet — one that raced with Close included —
	// is taken without the two-channel select.
	select {
	case pkt := <-l.in:
		return takePacket(pkt, buf), nil
	default:
	}
	select {
	case pkt := <-l.in:
		return takePacket(pkt, buf), nil
	case <-l.closed:
		return 0, errClosed
	}
}

func (l *chanLink) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *chanLink) LocalAddr() net.Addr  { return l.local }
func (l *chanLink) RemoteAddr() net.Addr { return l.remote }
