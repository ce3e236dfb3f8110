package fldgram

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// perPacket, set only by tests, makes every run a run of one and keeps
// segmentation offload off, so the links move one datagram per syscall.
var perPacket bool

// oobLen is room for the control message of a coalesced read.
const oobLen = 64

// udpSocket is a UDP socket with its segmentation-offload state: seg is the
// packet size the kernel splits one send at (UDP_SEGMENT), 0 while offload
// is off.
type udpSocket struct {
	*net.UDPConn
	seg atomic.Int32
}

// newUDPSocket turns offload on where the kernel takes it: sends split at
// mtu, and receives coalesced.
func newUDPSocket(uc *net.UDPConn, mtu int) *udpSocket {
	s := &udpSocket{UDPConn: uc}
	if !perPacket {
		if setSegment(uc, mtu) {
			s.seg.Store(int32(mtu))
		}
		setGRO(uc)
	}
	return s
}

// writePackets sends run as packets of size bytes to to (the connected peer
// when to is the zero value): with one send while the socket splits at
// size, otherwise with one send per packet. A send the kernel refuses for
// the segment size turns offload off for the socket and goes again packet
// by packet.
func (s *udpSocket) writePackets(run []byte, size int, to netip.AddrPort) (err error) {
	if seg := int(s.seg.Load()); seg != 0 && (seg == size || len(run) <= size) {
		if err = s.send(run, to); !gsoRefused(err) {
			return err
		}
		if s.seg.Swap(0) != 0 {
			setSegment(s.UDPConn, 0)
		}
	}
	for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
		err = s.send(p, to)
	}
	return err
}

func (s *udpSocket) send(p []byte, to netip.AddrPort) (err error) {
	if to.IsValid() {
		_, err = s.WriteToUDPAddrPort(p, to)
	} else {
		_, err = s.Write(p)
	}
	return err
}

// udpLink is the dialer-side carrier: a connected UDP socket.
type udpLink struct {
	uc  *udpSocket
	oob [oobLen]byte
}

func (l *udpLink) WritePackets(run []byte, size int) error {
	return l.uc.writePackets(run, size, netip.AddrPort{})
}

// ReadPackets reads straight into the caller's buffer: a coalesced run
// needs no second buffer and no copy.
func (l *udpLink) ReadPackets(buf []byte) (int, int, error) {
	n, oobn, _, _, err := l.uc.ReadMsgUDPAddrPort(buf, l.oob[:])
	return n, groSize(l.oob[:oobn]), err
}

func (l *udpLink) Close() error         { return l.uc.Close() }
func (l *udpLink) LocalAddr() net.Addr  { return l.uc.LocalAddr() }
func (l *udpLink) RemoteAddr() net.Addr { return l.uc.RemoteAddr() }

// Dialer returns a dial function in the shape flnet.EdgeConfig.Dial
// expects, producing datagram Conns over UDP. Conns draw chaos streams
// from cfg.Seed and a per-dial index, so redials (flnet's reconnect loop)
// see fresh, still-deterministic fault sequences.
func Dialer(cfg Config) (func(addr string, timeout time.Duration) (net.Conn, error), error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var mu sync.Mutex
	next := 0
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		raddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("resolve %s: %w", addr, err)
		}
		uc, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		idx := next
		next++
		mu.Unlock()
		return newConn(&udpLink{uc: newUDPSocket(uc, cfg.withDefaults().MTU)}, cfg, idx), nil
	}, nil
}

// muxLink is one peer's receive queue on a shared listener socket; writes
// go straight out the socket to the peer's address.
type muxLink struct {
	l      *Listener
	remote netip.AddrPort
	in     chan *[]byte
	once   sync.Once
	closed chan struct{}
}

// muxQueueLen bounds one peer's inbound queue; overflow drops packets
// (datagram semantics — the peer's ARQ retransmits).
const muxQueueLen = 512

func (ml *muxLink) WritePackets(run []byte, size int) error {
	return ml.l.pc.writePackets(run, size, ml.remote)
}

func (ml *muxLink) ReadPackets(buf []byte) (int, int, error) {
	select {
	case pkt := <-ml.in:
		return takePacket(pkt, buf), 0, nil
	case <-ml.closed:
		return 0, 0, errClosed
	case <-ml.l.done:
		return 0, 0, errClosed
	}
}

// Close detaches this peer from the mux; the shared socket stays open.
func (ml *muxLink) Close() error {
	ml.once.Do(func() {
		close(ml.closed)
		ml.l.forget(ml.remote)
	})
	return nil
}

func (ml *muxLink) LocalAddr() net.Addr  { return ml.l.pc.LocalAddr() }
func (ml *muxLink) RemoteAddr() net.Addr { return net.UDPAddrFromAddrPort(ml.remote) }

// Listener is a net.Listener over one UDP socket: inbound datagrams are
// demultiplexed by source address, and each new source becomes a pending
// Conn for Accept. Closing an accepted Conn detaches that peer (a
// subsequent datagram from the same address would open a fresh Conn —
// which is how flnet redials land on a new connection).
type Listener struct {
	pc  *udpSocket
	cfg Config

	mu    sync.Mutex
	peers map[netip.AddrPort]*muxLink
	next  int // conn creation index, seeds chaos streams

	acceptCh chan *Conn
	done     chan struct{}
	once     sync.Once
}

// acceptBacklog bounds conns awaiting Accept.
const acceptBacklog = 128

// listenRcvBuf is the receive buffer Listen asks the kernel for. Every peer
// sends into this one socket, so it must hold fleet × window datagrams at
// their skb truesize (2304 B each at the default MTU): the stock 212992 B
// holds 92, enough for 8 peers; the paper's 20 need 160 (369 kB).
const listenRcvBuf = 4 << 20

// Listen opens a datagram listener on the given UDP address.
func Listen(addr string, cfg Config) (*Listener, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("resolve %s: %w", addr, err)
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		pc:       newUDPSocket(pc, cfg.withDefaults().MTU),
		cfg:      cfg,
		peers:    make(map[netip.AddrPort]*muxLink),
		acceptCh: make(chan *Conn, acceptBacklog),
		done:     make(chan struct{}),
	}
	// Best effort: the kernel clamps the request to rmem_max, and window is
	// sized so that a refusal costs nothing at the benchmarked fleet.
	_ = pc.SetReadBuffer(listenRcvBuf)
	go l.readLoop()
	return l, nil
}

// readLoop demultiplexes the socket into per-peer queues, spawning a Conn
// for each new source address whose datagram opens a stream: its first
// packet is a valid data packet with sequence 0. A new peer's first flight
// may arrive coalesced, so only that packet is checked. Anything else from
// an unknown address (garbage, or an ACK or FIN from a peer already
// forgotten, as Conn.Close's second FIN is) is dropped before it costs a
// Conn or a conn index. It reads into one scratch of its own and queues a
// right-sized copy of each packet, so a queued packet costs its size, not
// the largest datagram the socket could have delivered.
func (l *Listener) readLoop() {
	buf := make([]byte, maxMTU+1)
	var oob [oobLen]byte
	for {
		n, oobn, _, raddr, err := l.pc.ReadMsgUDPAddrPort(buf, oob[:])
		if err != nil {
			select {
			case <-l.done:
			default:
				l.Close()
			}
			return
		}
		run, size := buf[:n], groSize(oob[:oobn])
		var rejected *Conn
		l.mu.Lock()
		ml, ok := l.peers[raddr]
		if !ok {
			first, _ := segment(run, size)
			if typ, _, seq, _, _, valid := decodePacket(first); !valid || typ != pktData || seq != 0 {
				l.mu.Unlock()
				continue
			}
			ml = &muxLink{
				l:      l,
				remote: raddr,
				in:     make(chan *[]byte, muxQueueLen),
				closed: make(chan struct{}),
			}
			idx := l.next
			l.next++
			conn := newConn(ml, l.cfg, idx)
			select {
			case l.acceptCh <- conn:
				l.peers[raddr] = ml
			default:
				// Accept backlog full: refuse by dropping both the conn and
				// the packet; the peer's ARQ will retry. Close outside l.mu
				// — it re-enters via forget.
				rejected = conn
				ml = nil
			}
		}
		l.mu.Unlock()
		if rejected != nil {
			rejected.Close()
		}
		if ml == nil {
			continue
		}
		for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
			pkt := queuedPacket(p)
			select {
			case ml.in <- pkt:
			default:
				takePacket(pkt, nil) // queue full: carrier drop
			}
		}
	}
}

// forget detaches a peer address from the mux.
func (l *Listener) forget(key netip.AddrPort) {
	l.mu.Lock()
	delete(l.peers, key)
	l.mu.Unlock()
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("listener closed: %w", ErrTransport)
	}
}

// Close implements net.Listener: the socket closes and every peer Conn's
// receive side fails.
func (l *Listener) Close() error {
	var err error
	l.once.Do(func() {
		close(l.done)
		err = l.pc.Close()
		// Drain conns never accepted so their recv loops exit.
		for {
			select {
			case c := <-l.acceptCh:
				c.Close()
			default:
				return
			}
		}
	})
	return err
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.pc.LocalAddr() }
