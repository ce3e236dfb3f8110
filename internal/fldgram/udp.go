package fldgram

import (
	"context"
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

// writePackets sends run to the connected peer as packets of size bytes:
// with one send while the socket splits at size, otherwise with one send
// per packet. A send the kernel refuses for the segment size turns offload
// off for the socket and goes again packet by packet.
func (s *udpSocket) writePackets(run []byte, size int) (err error) {
	if seg := int(s.seg.Load()); seg != 0 && (seg == size || len(run) <= size) {
		if _, err = s.Write(run); !gsoRefused(err) {
			return err
		}
		if s.seg.Swap(0) != 0 {
			setSegment(s.UDPConn, 0)
		}
	}
	for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
		_, err = s.Write(p)
	}
	return err
}

// udpLink is a carrier on a connected UDP socket: a dialer's, or one a
// Listener opened for a peer. A listener's peer socket is bound before it
// is connected, and in between the kernel may queue another source's
// datagram on it; l and peer are set there, so that such a datagram goes
// back to the listener's dispatch instead of into this peer's stream.
type udpLink struct {
	uc   *udpSocket
	oob  [oobLen]byte
	l    *Listener
	peer netip.AddrPort
}

func (l *udpLink) WritePackets(run []byte, size int) error {
	return l.uc.writePackets(run, size)
}

// ReadPackets reads straight into the caller's buffer: a coalesced run
// needs no second buffer and no copy.
func (l *udpLink) ReadPackets(buf []byte) (int, int, error) {
	for {
		n, oobn, _, from, err := l.uc.ReadMsgUDPAddrPort(buf, l.oob[:])
		size := groSize(l.oob[:oobn])
		if err != nil || l.l == nil || from == l.peer {
			return n, size, err
		}
		l.l.dispatch(buf[:n], size, from)
	}
}

// Close closes the socket; a Listener's peer is forgotten with it.
func (l *udpLink) Close() error {
	if l.l != nil {
		l.l.forget(l.peer)
	}
	return l.uc.Close()
}

func (l *udpLink) LocalAddr() net.Addr  { return l.uc.LocalAddr() }
func (l *udpLink) RemoteAddr() net.Addr { return l.uc.RemoteAddr() }

// Dialer returns a dial function in the shape flnet.EdgeConfig.Dial
// expects, producing datagram Conns over UDP. Conns draw loss streams
// from cfg.Seed and a per-dial index, so redials (flnet's reconnect loop)
// see fresh, still-deterministic drop sequences.
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

// Listener is a net.Listener over UDP. A new source address whose datagram
// opens a stream gets a socket of its own, bound to the listener's address
// beside it (SO_REUSEPORT) and connected to that source, under a Conn for
// Accept; the listener's socket then sees only new peers and a peer's
// datagrams that reached it before its own socket was connected. Closing
// an accepted Conn closes its socket and forgets the peer (a later
// datagram from the same address would open a fresh Conn — which is how
// flnet redials land on a new connection). Closing the Listener leaves
// accepted Conns open, as net.TCPListener does; their owner closes them.
type Listener struct {
	pc  *net.UDPConn // reads only: every peer's Conn sends on its own socket
	cfg Config

	mu    sync.Mutex
	peers map[netip.AddrPort]*Conn
	next  int // conn creation index, seeds loss streams

	acceptCh chan *Conn
	done     chan struct{}
	once     sync.Once
}

// acceptBacklog bounds conns awaiting Accept.
const acceptBacklog = 128

// Listen opens a datagram listener on the given UDP address. It needs
// SO_REUSEPORT, and fails with ErrTransport where the system has none.
func Listen(addr string, cfg Config) (*Listener, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if errNoReusePort != nil {
		return nil, errNoReusePort
	}
	lc := net.ListenConfig{Control: reusePort}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		pc:       pc.(*net.UDPConn),
		cfg:      cfg,
		peers:    make(map[netip.AddrPort]*Conn),
		acceptCh: make(chan *Conn, acceptBacklog),
		done:     make(chan struct{}),
	}
	if !perPacket {
		setGRO(l.pc)
	}
	go l.readLoop()
	return l, nil
}

// readLoop dispatches what the listener's socket receives.
func (l *Listener) readLoop() {
	buf := make([]byte, maxMTU+1)
	var oob [oobLen]byte
	for {
		n, oobn, _, raddr, err := l.pc.ReadMsgUDPAddrPort(buf, oob[:])
		if err != nil {
			l.Close()
			return
		}
		l.dispatch(buf[:n], groSize(oob[:oobn]), raddr)
	}
}

// dispatch hands a run from raddr to its peer's Conn in place, opening a
// Conn for a new source address whose datagram opens a stream: its first
// packet is a valid data packet with sequence 0. A new peer's first flight
// may arrive coalesced, so only that packet is checked. Anything else from
// an unknown address (garbage, or an ACK or FIN from a peer already
// forgotten, as Conn.Close's second FIN is) is dropped before it costs a
// Conn, a socket or a conn index.
func (l *Listener) dispatch(run []byte, size int, raddr netip.AddrPort) {
	var rejected *Conn
	l.mu.Lock()
	c, ok := l.peers[raddr]
	if !ok {
		c, rejected = l.open(run, size, raddr)
	}
	l.mu.Unlock()
	if rejected != nil {
		rejected.Close() // outside l.mu: it re-enters via forget
	}
	if c == nil {
		return
	}
	for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
		c.process(p)
	}
	c.wakeAll()
}

// open makes the Conn for a new peer under l.mu, or nil for a datagram that
// opens no stream, a closed listener, or a socket the system refused. A
// full Accept backlog refuses the peer: the Conn is returned as rejected
// and the packet dropped, and the peer's ARQ will retry.
func (l *Listener) open(run []byte, size int, raddr netip.AddrPort) (c, rejected *Conn) {
	first, _ := segment(run, size)
	if typ, _, seq, _, _, valid := decodePacket(first); !valid || typ != pktData || seq != 0 {
		return nil, nil
	}
	select {
	case <-l.done:
		return nil, nil
	default:
	}
	d := net.Dialer{LocalAddr: l.pc.LocalAddr(), Control: reusePort}
	uc, err := d.Dial("udp", raddr.String())
	if err != nil {
		return nil, nil
	}
	c = newConn(&udpLink{uc: newUDPSocket(uc.(*net.UDPConn), l.cfg.withDefaults().MTU), l: l, peer: raddr}, l.cfg, l.next)
	l.next++
	select {
	case l.acceptCh <- c:
		l.peers[raddr] = c
		return c, nil
	default:
		return nil, c
	}
}

// forget detaches a peer address from the listener.
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

// Close implements net.Listener: the listener's socket closes, and Conns
// not yet accepted close with it. Accepted Conns stay open.
func (l *Listener) Close() error {
	var err error
	l.once.Do(func() {
		l.mu.Lock() // open checks done under l.mu: no Conn is queued after the drain
		close(l.done)
		l.mu.Unlock()
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
