package fldgram

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// udpLink is the dialer-side carrier: a connected UDP socket.
type udpLink struct {
	uc *net.UDPConn
}

func (l *udpLink) WritePacket(p []byte) error {
	_, err := l.uc.Write(p)
	return err
}

func (l *udpLink) ReadPacket(buf []byte) (int, error) {
	return l.uc.Read(buf)
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
		return newConn(&udpLink{uc: uc}, cfg, idx), nil
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

func (ml *muxLink) WritePacket(p []byte) error {
	_, err := ml.l.pc.WriteToUDPAddrPort(p, ml.remote)
	return err
}

func (ml *muxLink) ReadPacket(buf []byte) (int, error) {
	select {
	case pkt := <-ml.in:
		return takePacket(pkt, buf), nil
	case <-ml.closed:
		return 0, errClosed
	case <-ml.l.done:
		return 0, errClosed
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
	pc  *net.UDPConn
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
		pc:       pc,
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
// for each new source address. It reads into one scratch of its own and
// queues a right-sized copy, so a queued datagram costs its size, not the
// largest one the socket could have delivered.
func (l *Listener) readLoop() {
	buf := make([]byte, maxMTU+1)
	for {
		n, raddr, err := l.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-l.done:
			default:
				l.Close()
			}
			return
		}
		var rejected *Conn
		l.mu.Lock()
		ml, ok := l.peers[raddr]
		if !ok {
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
		pkt := queuedPacket(buf[:n])
		select {
		case ml.in <- pkt:
		default:
			takePacket(pkt, nil) // queue full: carrier drop
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
