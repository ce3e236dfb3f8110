package fldgram

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"eefei/internal/faultnet"
)

// errPeerClosed reports a write against a peer that sent FIN.
var errPeerClosed = fmt.Errorf("peer closed: %w", ErrTransport)

// errBrokenStream reports a Write after a failed one: the failed Write's
// buffer was the only copy of its unacknowledged fragments.
var errBrokenStream = fmt.Errorf("stream broken by a failed write: %w", ErrTransport)

// window is the number of data packets a Write keeps unacknowledged. Every
// peer of a Listener sends into one socket, so the bound that matters is
// fleet × window × skb truesize (2304 B for a 1200-byte datagram) below the
// socket's receive buffer: 8 × 8 × 2304 B = 147 kB fits the stock 212992 B;
// 16 overflows it and turns injected loss into real carrier loss.
const window = 8

// Stats is a snapshot of one Conn's packet accounting. The Tx side counts
// data packets only (ACKs and FINs ride for free in the energy model — the
// paper prices sample upload attempts, and the 20-byte ACK is noise next to
// kilobyte fragments, but AckPackets records how many were sent).
type Stats struct {
	// TxAttempts / TxAttemptBytes count every data-packet transmission,
	// retransmissions and injected drops included — the radio spent the
	// energy whether or not the carrier delivered.
	TxAttempts     int64
	TxAttemptBytes int64
	// TxDelivered / TxDeliveredBytes count unique acknowledged fragments
	// (wire size, header included).
	TxDelivered      int64
	TxDeliveredBytes int64
	// Rx counters mirror the receive side: unique in-order data packets
	// delivered to Read, duplicates re-acknowledged, strays ahead of the
	// in-order frontier, and datagrams that failed validation.
	RxDelivered      int64
	RxDeliveredBytes int64
	RxDupPackets     int64
	RxAheadPackets   int64
	RxInvalidPackets int64
	// AckPackets counts acknowledgments sent (including injected-dropped
	// ones).
	AckPackets int64
	// GoBacks counts returns of the sender to the ACK frontier, on an RTO
	// or a gap ACK: the carrier, not the injector, lost or reordered
	// something. 0 on a healthy link whatever the injected loss.
	GoBacks int64
	// PeerAttemptBytes is the peer's cumulative attempted data bytes as
	// last reported in a packet header.
	PeerAttemptBytes int64
}

// Conn is a reliable net.Conn over an unreliable PacketLink: MTU
// fragmentation, CRC-validated reassembly, and a go-back-N ARQ with a fixed
// window of unacknowledged packets, count-based cumulative ACKs and
// per-attempt accounting. One goroutine owns the link's receive side; Write
// calls are serialized internally. Read supports a single reader at a time
// (concurrent readers would race for the same in-order stream anyway).
type Conn struct {
	link PacketLink
	cfg  Config
	// payload is the data capacity of one fragment.
	payload   int
	dataChaos *faultnet.PacketInjector
	ackChaos  *faultnet.PacketInjector
	meter     *Meter

	// writeMu serializes Write calls (one window in flight at a time).
	writeMu   sync.Mutex
	txScratch []byte

	// sendMu serializes link.WritePacket across the writer goroutine and
	// the receive loop's ACKs, and guards the reorder hold-back slot.
	sendMu     sync.Mutex
	ackScratch []byte
	held       []byte
	heldValid  bool

	mu      sync.Mutex
	cond    *sync.Cond
	ra      reassembler
	unacked int    // in-order packets absorbed since the last ACK went out
	txSeq   uint32 // next data sequence number never yet transmitted
	txAcked uint32 // fragments acknowledged (cumulative): the ACK frontier
	gapAt   uint64 // 1 + the frontier the newest gap ACK reported (0: none yet)
	stats   Stats
	readDL  time.Time
	writeDL time.Time
	err     error // sticky receive-loop failure
	closed  bool

	ackTimer *time.Timer
	rdTimer  *time.Timer
}

// newConn wraps a PacketLink. idx distinguishes sibling conns of one
// endpoint so each draws independent chaos streams from cfg.Seed. cfg must
// already be validated.
func newConn(link PacketLink, cfg Config, idx int) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{link: link, cfg: cfg, payload: cfg.MTU - headerLen, meter: cfg.Meter}
	c.cond = sync.NewCond(&c.mu)
	c.ackTimer = stoppedTimer(c.wakeAll)
	c.rdTimer = stoppedTimer(c.wakeAll)
	if p := lossProb(cfg.SuccessProb); p > 0 || cfg.DupProb > 0 || cfg.ReorderProb > 0 {
		c.dataChaos = mustPacketInjector(faultnet.PacketConfig{
			Seed:        mixSeed(cfg.Seed, idx, 1),
			LossProb:    p,
			DupProb:     cfg.DupProb,
			ReorderProb: cfg.ReorderProb,
		})
	}
	if p := lossProb(cfg.AckSuccessProb); p > 0 {
		c.ackChaos = mustPacketInjector(faultnet.PacketConfig{
			Seed:     mixSeed(cfg.Seed, idx, 2),
			LossProb: p,
		})
	}
	go c.recvLoop()
	return c
}

// mixSeed derives an uncorrelated stream seed per (conn, direction),
// following faultnet's splitmix-style mixer.
func mixSeed(seed uint64, idx int, stream uint64) uint64 {
	z := seed + uint64(idx+1)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 27)
}

func mustPacketInjector(cfg faultnet.PacketConfig) *faultnet.PacketInjector {
	pi, err := faultnet.NewPacketInjector(cfg)
	if err != nil {
		panic(fmt.Sprintf("fldgram: %v", err)) // Config.Validate bounds the probabilities
	}
	return pi
}

// stoppedTimer returns a disarmed timer firing f when Reset.
func stoppedTimer(f func()) *time.Timer {
	t := time.AfterFunc(time.Hour, f)
	t.Stop()
	return t
}

// wakeAll broadcasts under the state lock, so a wakeup can never slip into
// the window between a waiter's condition check and its cond.Wait.
func (c *Conn) wakeAll() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// recvLoop owns the link's receive side until the link dies.
func (c *Conn) recvLoop() {
	buf := make([]byte, maxMTU+1)
	for {
		n, err := c.link.ReadPacket(buf)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.process(buf[:n])
	}
}

// process routes one raw datagram: ACKs feed the send side, everything else
// goes through the reassembler (which also validates and counts garbage).
// The ACK policy lives here and counts packets, never time, so AckPackets is
// a function of the byte stream: one cumulative ACK when a frame ends, one
// every window/2 in-order packets (the sender's window reopens before it
// drains), one for any duplicate (its ACK was lost), and one flagged
// flagGap for a packet past the frontier (the carrier lost its predecessor).
func (c *Conn) process(pkt []byte) {
	if len(pkt) > 0 && pkt[0] == pktAck {
		c.processAck(pkt)
		return
	}
	var flags byte
	ack := false
	c.mu.Lock()
	next, ahead := c.ra.next, c.ra.aheadPackets
	switch _, owed := c.ra.absorb(pkt); {
	case c.ra.next != next: // in order (and CRC-valid, so its flags are the sender's)
		c.unacked++
		ack = pkt[1]&flagFrameEnd != 0 || c.unacked >= window/2
	case owed: // duplicate
		ack = true
	case c.ra.aheadPackets != ahead:
		ack, flags = true, flagGap
	}
	// The in-order frontier, carrying this side's cumulative attempted
	// bytes so the peer can meter our spend. next−1 wraps for an empty
	// frontier; processAck's +1 wraps it back to "nothing acknowledged".
	seq, cum := c.ra.next-1, uint64(c.stats.TxAttemptBytes)
	if ack {
		c.unacked = 0
		c.stats.AckPackets++
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	if !ack || (c.ackChaos != nil && c.ackChaos.Next().Drop) {
		return
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.ackScratch = encodePacket(c.ackScratch[:0], pktAck, flags, seq, cum, nil)
	c.link.WritePacket(c.ackScratch)
}

// processAck advances the ACK frontier. An ACK for a fragment never sent is
// garbage however valid its CRC: believing it would complete a Write whose
// bytes the peer never absorbed. A gap ACK for the current frontier, with
// something beyond it sent, is recorded for Write to go back on; the plain
// re-ACK a duplicate earns never is.
func (c *Conn) processAck(pkt []byte) {
	_, flags, seq, attemptBytes, _, ok := decodePacket(pkt)
	acked := seq + 1
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok || acked > c.txSeq {
		c.ra.invalidPackets++
		return
	}
	if attemptBytes > c.ra.peerAttemptBytes {
		c.ra.peerAttemptBytes = attemptBytes
	}
	if acked > c.txAcked {
		c.txAcked = acked
	}
	if flags&flagGap != 0 && acked == c.txAcked && acked < c.txSeq {
		c.gapAt = uint64(acked) + 1
	}
	c.cond.Broadcast()
}

// sendData puts one data packet on the carrier, applying the injected
// duplication/reorder fate. A held packet is released by the next send.
func (c *Conn) sendData(pkt []byte, fate faultnet.PacketFate) {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if fate.Hold {
		c.held = append(c.held[:0], pkt...)
		c.heldValid = true
		return
	}
	c.link.WritePacket(pkt)
	if fate.Dup {
		c.link.WritePacket(pkt)
	}
	if c.heldValid {
		c.heldValid = false
		c.link.WritePacket(c.held)
	}
}

// Write fragments p into MTU-sized data packets and keeps up to window of
// them unacknowledged. It returns only when every byte is acknowledged (or
// the conn fails), so the flnet frame protocol's write-then-await-reply
// sequencing holds unchanged over a lossy carrier — and p itself is the
// retransmission buffer: a fragment is re-encoded from it, never copied.
//
// Every transmission draws its fate from the seeded injector at the moment
// it is made, fragments in sequence order, and an injected drop is retried
// at once — counted, priced, never sent, never waited for, since the drop
// already happened on "the radio" and no ACK can come. Attempt counters are
// therefore a pure function of (seed, byte stream), and the last fragment's
// header carries the final cumulative attempted bytes. Only genuine carrier
// loss goes back to the frontier: after one round trip when the receiver
// saw the gap, after an RTO without progress when the loss was at the tail.
func (c *Conn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txAcked != c.txSeq {
		return 0, errBrokenStream
	}
	var (
		base     = c.txSeq                              // sequence number of p's first fragment
		n        = (len(p) + c.payload - 1) / c.payload // fragments in p
		acked    int                                    // fragments the ACK frontier has passed
		next     int                                    // fragment to transmit next
		attempts [window]int                            // transmissions of in-flight fragment i, at i%window
		rtoAt    time.Time                              // zero until a wait begins; any progress clears it
		recover  int                                    // gap ACKs are ignored until the frontier reaches it
	)
	fragment := func(i int) []byte { return p[i*c.payload : min((i+1)*c.payload, len(p))] }
	for {
		for ; acked < int(c.txAcked-base); acked++ {
			size := headerLen + len(fragment(acked))
			c.stats.TxDelivered++
			c.stats.TxDeliveredBytes += int64(size)
			c.meter.addDelivered(size)
			attempts[acked%window], rtoAt = 0, time.Time{}
		}
		if acked == n {
			return len(p), nil
		}
		now := time.Now()
		switch {
		case c.closed:
			return acked * c.payload, errClosed
		case c.err != nil:
			return acked * c.payload, c.err
		case c.ra.finSeen:
			return acked * c.payload, errPeerClosed
		case !c.writeDL.IsZero() && !now.Before(c.writeDL):
			return acked * c.payload, os.ErrDeadlineExceeded
		}
		next = max(next, acked)
		full := next == n || next-acked == window
		if (c.gapAt == uint64(c.txAcked)+1 && acked >= recover) ||
			(full && !rtoAt.IsZero() && !now.Before(rtoAt)) {
			// The carrier lost something: the receiver saw a gap, or nothing
			// came back for an RTO. Go back to the frontier — and, as in
			// NewReno, ignore further gap reports until the frontier passes
			// everything sent so far: they are echoes of the same flight.
			next, recover, rtoAt, full = acked, int(c.txSeq-base), time.Time{}, false
			c.stats.GoBacks++
		}
		if full {
			// Everything is sent or the window is full: wait for the
			// frontier to move, a gap ACK, or the RTO.
			if rtoAt.IsZero() {
				rtoAt = now.Add(c.cfg.RTO)
			}
			wake := rtoAt
			if !c.writeDL.IsZero() && c.writeDL.Before(wake) {
				wake = c.writeDL
			}
			c.ackTimer.Reset(wake.Sub(now))
			c.cond.Wait()
			continue
		}

		seq := base + uint32(next)
		if attempts[next%window] == c.cfg.MaxAttempts {
			return acked * c.payload, fmt.Errorf("fragment %d after %d attempts: %w", seq, c.cfg.MaxAttempts, errAttempts)
		}
		attempts[next%window]++
		frag, flags := fragment(next), byte(0)
		if next == n-1 {
			flags = flagFrameEnd
		}
		if seq == c.txSeq {
			c.txSeq++
		}
		c.stats.TxAttempts++
		c.stats.TxAttemptBytes += int64(headerLen + len(frag))
		cum := uint64(c.stats.TxAttemptBytes)
		c.meter.addAttempt(headerLen + len(frag))
		var fate faultnet.PacketFate
		if c.dataChaos != nil {
			fate = c.dataChaos.Next()
		}
		if fate.Drop {
			continue
		}
		next, rtoAt = next+1, time.Time{}
		c.mu.Unlock()
		c.txScratch = encodePacket(c.txScratch[:0], pktData, flags, seq, cum, frag)
		c.sendData(c.txScratch, fate)
		c.mu.Lock()
	}
}

// Read returns in-order reassembled stream bytes.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.ra.buf) > 0 {
			if len(p) == 0 {
				return 0, nil
			}
			return c.ra.read(p), nil
		}
		if c.closed {
			return 0, errClosed
		}
		if c.ra.finSeen {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		now := time.Now()
		if !c.readDL.IsZero() {
			if !now.Before(c.readDL) {
				return 0, os.ErrDeadlineExceeded
			}
			c.rdTimer.Reset(c.readDL.Sub(now))
		}
		c.cond.Wait()
	}
}

// Close sends a best-effort FIN (twice, bypassing injected loss — UDP has
// no EOF, and a silently vanished peer would otherwise pin the remote Read
// until its deadline) and tears down the link, unblocking all waiters.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	seq := c.txSeq
	cum := uint64(c.stats.TxAttemptBytes)
	// No waiter re-arms a timer once closed is set. Left armed, the runtime's
	// timer heap would pin this Conn and its buffers until the last
	// deadline set on it passes.
	c.ackTimer.Stop()
	c.rdTimer.Stop()
	c.cond.Broadcast()
	c.mu.Unlock()

	c.sendMu.Lock()
	if c.heldValid {
		c.heldValid = false
		c.link.WritePacket(c.held)
	}
	fin := encodePacket(nil, pktFin, 0, seq, cum, nil)
	c.link.WritePacket(fin)
	c.link.WritePacket(fin)
	c.sendMu.Unlock()
	return c.link.Close()
}

// Stats returns a snapshot of the packet accounting.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.RxDelivered = c.ra.deliveredPackets
	s.RxDeliveredBytes = c.ra.deliveredBytes
	s.RxDupPackets = c.ra.dupPackets
	s.RxAheadPackets = c.ra.aheadPackets
	s.RxInvalidPackets = c.ra.invalidPackets
	s.PeerAttemptBytes = int64(c.ra.peerAttemptBytes)
	return s
}

// DgramCounters exposes the four counters flnet meters per round:
// this side's attempted and delivered (acknowledged) data bytes, the peer's
// cumulative attempted data bytes as last reported, and the unique data
// bytes received. flnet type-asserts for exactly this method, keeping the
// packages decoupled.
func (c *Conn) DgramCounters() (txAttemptBytes, txDeliveredBytes, peerAttemptBytes, rxDeliveredBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.TxAttemptBytes, c.stats.TxDeliveredBytes,
		int64(c.ra.peerAttemptBytes), c.ra.deliveredBytes
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.link.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.link.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}
