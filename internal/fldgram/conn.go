package fldgram

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"eefei/internal/mat"
)

// errPeerClosed reports a write against a peer that sent FIN.
var errPeerClosed = fmt.Errorf("peer closed: %w", ErrTransport)

// errBrokenStream reports a Write after a failed one: the failed Write's
// buffer was the only copy of its unacknowledged fragments.
var errBrokenStream = fmt.Errorf("stream broken by a failed write: %w", ErrTransport)

// window is the number of data packets a Write keeps unacknowledged, and how
// far ahead of a hole the receiver holds packets. Each peer of a Listener
// has a socket of its own, so the bound that matters is window × skb
// truesize (2304 B for a 1200-byte datagram) below one socket's receive
// buffer: 64 × 2304 B = 147 kB fits the stock 212992 B whatever the fleet.
// 64 is also the kernel's segment cap, and a window holds the paper's
// 54-fragment raw model, so every model frame leaves in one flight.
const window = 64

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
	// in-order frontier (held, or dropped when window or more ahead), and
	// datagrams that failed validation.
	RxDelivered      int64
	RxDeliveredBytes int64
	RxDupPackets     int64
	RxAheadPackets   int64
	RxInvalidPackets int64
	// AckPackets counts acknowledgments sent.
	AckPackets int64
	// GoBacks counts recoveries: one hole resent on a gap ACK, or an RTO
	// go-back to the ACK frontier. The carrier, not an injected drop, lost or
	// reordered something; 0 on a healthy link whatever the injected loss.
	GoBacks int64
	// PeerAttemptBytes is the peer's cumulative attempted data bytes as
	// last reported in a packet header.
	PeerAttemptBytes int64
}

// Conn is a reliable net.Conn over an unreliable PacketLink: MTU
// fragmentation, CRC-validated reassembly, and a sliding-window ARQ with a
// fixed window of unacknowledged packets, count-based cumulative ACKs, a
// receiver that holds what arrives past a hole, and per-attempt
// accounting. One goroutine owns the link's receive side; frames (a Write,
// or a Send to its Flush) are serialized internally. Read supports a single
// reader at a time (concurrent readers would race for the same in-order
// stream anyway).
type Conn struct {
	link PacketLink
	cfg  Config
	// payload is the data capacity of one fragment.
	payload int
	loss    chance // the injected data-packet loss, drawn by the writer under mu

	// writeMu serializes frames (one window in flight at a time), from a
	// Write's or Send's start to its end; out is the frame in flight, and
	// txScratch holds the run it lays out, at most window packets.
	writeMu   sync.Mutex
	out       outFrame
	txScratch []byte

	// sendMu serializes link.WritePackets across the writer goroutine, the
	// receive loop's ACKs and Close's FINs, and guards ackScratch, the
	// buffer the receive loop lays its ACKs out in.
	sendMu     sync.Mutex
	ackScratch []byte

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
// endpoint so each draws an independent loss stream from cfg.Seed. cfg must
// already be validated.
func newConn(link PacketLink, cfg Config, idx int) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{link: link, cfg: cfg, payload: cfg.MTU - headerLen}
	c.cond = sync.NewCond(&c.mu)
	c.ackTimer = stoppedTimer(c.wakeAll)
	c.rdTimer = stoppedTimer(c.wakeAll)
	c.loss = newChance(mixSeed(mixSeed(cfg.Seed, idx, 1), 0, 5), lossProb(cfg.SuccessProb))
	go c.recvLoop()
	return c
}

// mixSeed derives an uncorrelated seed per (index, stream) from seed with a
// splitmix-style mixer: per (conn, direction) from Config.Seed, then per
// stream from that.
func mixSeed(seed uint64, idx int, stream uint64) uint64 {
	z := seed + uint64(idx+1)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 27)
}

// chance is one seeded Bernoulli stream, drawn once per packet whatever the
// outcome, so where an injected fault lands is a pure function of the seed
// and the packet index, never of carrier timing. The zero value never fires.
// It has no lock: the Conn draws under its state lock.
type chance struct {
	rng *mat.RNG
	p   float64
}

// newChance seeds a stream firing with probability p, or returns the zero
// value for p <= 0.
func newChance(seed uint64, p float64) chance {
	if p <= 0 {
		return chance{}
	}
	return chance{mat.NewRNG(seed), p}
}

func (c chance) draw() bool { return c.rng != nil && c.rng.Bernoulli(c.p) }

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

// recvLoop owns the link's receive side until the link dies, and wakes the
// waiters once per carrier read, not once per packet.
func (c *Conn) recvLoop() {
	buf := make([]byte, maxMTU+1)
	for {
		n, size, err := c.link.ReadPackets(buf)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				c.err = err
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		for pkt, rest := segment(buf[:n], size); pkt != nil; pkt, rest = segment(rest, size) {
			c.process(pkt)
		}
		c.wakeAll()
	}
}

// process routes one raw packet: ACKs feed the send side, everything else
// goes through the reassembler (which also validates and counts garbage).
// The ACK policy lives here and counts packets, never time, so AckPackets is
// a function of the byte stream: one cumulative ACK when a frame ends, one
// every window/2 in-order packets (the sender's window reopens before it
// drains), one for any duplicate (its ACK was lost), one for a packet past
// the frontier (the carrier lost its predecessor), and one when a hole
// fills. An ACK is flagged flagGap while a hole remains. It wakes no
// waiter: its caller does once the run it came in is processed.
func (c *Conn) process(pkt []byte) {
	if len(pkt) > 0 && pkt[0] == pktAck {
		c.processAck(pkt)
		return
	}
	var flags byte
	ack := false
	c.mu.Lock()
	next, ahead, held := c.ra.next, c.ra.aheadPackets, c.ra.held
	switch _, owed := c.ra.absorb(pkt); {
	case c.ra.next != next: // in order (and CRC-valid, so its flags are the sender's)
		c.unacked += int(c.ra.next - next)
		ack = pkt[1]&flagFrameEnd != 0 || c.unacked >= window/2 || held > 0
	case owed: // duplicate
		ack = true
	case c.ra.aheadPackets != ahead:
		ack = true
	}
	if c.ra.held > 0 || c.ra.aheadPackets != ahead {
		flags = flagGap
	}
	// The in-order frontier, carrying this side's cumulative attempted
	// bytes so the peer can meter our spend. next−1 wraps for an empty
	// frontier; processAck's +1 wraps it back to "nothing acknowledged".
	seq, cum := c.ra.next-1, uint64(c.stats.TxAttemptBytes)
	if ack {
		c.unacked = 0
		c.stats.AckPackets++
	}
	c.mu.Unlock()
	if !ack {
		return
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.ackScratch = encodePacket(c.ackScratch[:0], pktAck, flags, seq, cum, nil)
	c.link.WritePackets(c.ackScratch, len(c.ackScratch))
}

// processAck advances the ACK frontier. An ACK for a fragment never sent is
// garbage however valid its CRC: believing it would complete a Write whose
// bytes the peer never absorbed. A gap ACK for the current frontier, with
// something beyond it sent, is recorded for Write to resend the hole on;
// the plain re-ACK a duplicate earns never is.
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
}

// outFrame is the frame a Send put in flight and the ARQ state Flush carries
// on from. The write lock, not the state lock, guards it: only the writer
// that holds writeMu reads or writes it.
type outFrame struct {
	p        []byte      // the frame, and its retransmission buffer
	base     uint32      // sequence number of p's first fragment
	n        int         // fragments in p
	acked    int         // fragments the ACK frontier has passed
	next     int         // fragment to transmit next
	attempts [window]int // transmissions of in-flight fragment i, at i%window
	rtoAt    time.Time   // zero until a wait begins; any progress clears it
	hole     int         // fragment a gap ACK asked for, until it is resent; -1: none
	repaired int         // the frontier last resent or gone back to
	now      time.Time   // the clock as last read
	stale    bool        // a flush, a wait or an injected drop since then
}

// Write is Send then Flush: it fragments p into MTU-sized data packets,
// keeps up to window of them unacknowledged, and returns only when every
// byte is acknowledged (or the conn fails), so the flnet frame protocol's
// write-then-await-reply sequencing holds unchanged over a lossy carrier —
// and p itself is the retransmission buffer: a fragment is re-encoded from
// it, never copied.
//
// Every transmission draws from the seeded loss stream at the moment it is
// made, fragments in sequence order, and an injected drop is retried at
// once — counted, priced, never sent, never waited for, since the drop
// already happened on "the radio" and no ACK can come. Attempt counters are
// therefore a pure function of (seed, byte stream). The last fragment's
// header carries the final cumulative attempted bytes. Only
// genuine carrier loss is resent: when the receiver reports a gap, the one
// fragment at the frontier, once per frontier, after one round trip (the
// receiver holds what came after it); when the loss was at the tail,
// everything from the frontier, after an RTO without progress.
//
// The packets transmitted between two waits leave as one run, a flight the
// UDP carrier sends with one syscall. A run ends before Write waits (which
// covers the frame's one short packet, its last) and before it would pass
// maxMTU bytes; window, at most the kernel's 64-segment cap, bounds its
// count. A resent hole goes as a run of its own.
func (c *Conn) Write(p []byte) (int, error) {
	if n, err := c.send(p); err != nil {
		return n, err
	}
	return c.Flush()
}

// Send starts p as the next frame: it transmits every fragment the window
// admits, as Write does, and returns without waiting for the peer. A frame
// of up to window fragments is then wholly on the carrier. Send keeps the
// write lock, so another Write or Send waits, until Flush, which must follow
// every Send that returns nil; p must not change until Flush returns. A
// failed Send is over: it needs no Flush.
func (c *Conn) Send(p []byte) error {
	_, err := c.send(p)
	return err
}

// send is Send, returning on failure the bytes acknowledged, as Write does.
func (c *Conn) send(p []byte) (int, error) {
	c.writeMu.Lock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txAcked != c.txSeq {
		c.writeMu.Unlock()
		return 0, errBrokenStream
	}
	c.out = outFrame{p: p, base: c.txSeq, n: (len(p) + c.payload - 1) / c.payload, hole: -1, repaired: -1, stale: true}
	n, _, err := c.pump()
	if err != nil {
		c.out.p = nil
		c.writeMu.Unlock()
	}
	return n, err
}

// Flush carries the frame of the last Send to its end: it waits for the ACK
// frontier, resends a hole on a gap ACK, goes back to the frontier after an
// RTO without progress, and fails at the write deadline or after
// MaxAttempts transmissions of one fragment. It returns what Write would,
// and releases the write lock.
func (c *Conn) Flush() (int, error) {
	defer c.writeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	o := &c.out
	for {
		o.stale = true // the clock was last read by Send, or before the wait
		n, idle, err := c.pump()
		if !idle {
			o.p = nil
			return n, err
		}
		// Wait for the frontier to move, a gap ACK, the RTO or the deadline.
		wake := o.rtoAt
		if !c.writeDL.IsZero() && c.writeDL.Before(wake) {
			wake = c.writeDL
		}
		c.ackTimer.Reset(wake.Sub(o.now))
		c.cond.Wait()
	}
}

// fragment is fragment i of the frame in flight.
func (c *Conn) fragment(i int) []byte {
	return c.out.p[i*c.payload : min((i+1)*c.payload, len(c.out.p))]
}

// flushRun puts the run laid out in txScratch on the carrier, outside the
// state lock.
func (c *Conn) flushRun() {
	if len(c.txScratch) == 0 {
		return
	}
	c.mu.Unlock()
	c.sendMu.Lock()
	c.link.WritePackets(c.txScratch, c.cfg.MTU)
	c.sendMu.Unlock()
	c.mu.Lock()
	c.txScratch, c.out.stale = c.txScratch[:0], true
}

// pump advances the frame in flight under the state lock as far as it can
// without waiting. It reports idle, with the RTO armed, once all it may
// transmit is on the carrier and only the peer can move the frame on;
// otherwise it returns the frame's outcome.
func (c *Conn) pump() (n int, idle bool, err error) {
	o := &c.out
	defer c.flushRun() // a failed frame still sends what it transmitted
	for {
		for ; o.acked < int(c.txAcked-o.base); o.acked++ {
			size := headerLen + len(c.fragment(o.acked))
			c.stats.TxDelivered++
			c.stats.TxDeliveredBytes += int64(size)
			o.attempts[o.acked%window], o.rtoAt = 0, time.Time{}
		}
		if o.acked == o.n {
			return len(o.p), false, nil
		}
		// The clock is read once per flush, wait or injected drop, not once
		// per packet: between two of those the loop only lays out one run,
		// and a streak of drops, which neither sends nor waits, still meets
		// the deadline at every attempt.
		if o.stale {
			o.now, o.stale = time.Now(), false
		}
		sent := o.acked * c.payload
		switch {
		case c.closed:
			return sent, false, errClosed
		case c.err != nil:
			return sent, false, c.err
		case c.ra.finSeen:
			return sent, false, errPeerClosed
		case !c.writeDL.IsZero() && !o.now.Before(c.writeDL):
			return sent, false, os.ErrDeadlineExceeded
		}
		o.next = max(o.next, o.acked)
		full := o.next == o.n || o.next-o.acked == window
		switch {
		case c.gapAt == uint64(c.txAcked)+1 && o.acked != o.repaired:
			// The carrier lost the frontier fragment and the receiver holds
			// what came after it: resend that one. Further gap reports for
			// the same frontier are echoes of the same hole.
			o.hole, o.repaired = o.acked, o.acked
			c.stats.GoBacks++
		case full && !o.rtoAt.IsZero() && !o.now.Before(o.rtoAt):
			// Nothing came back for an RTO: a loss at the tail, or a lost
			// resend. Go back to the frontier.
			o.next, o.hole, o.repaired, o.rtoAt, full = o.acked, -1, o.acked, time.Time{}, false
			c.stats.GoBacks++
		}
		if o.hole < o.acked {
			o.hole = -1 // the frontier passed it
		}
		if full && o.hole < 0 {
			if len(c.txScratch) > 0 {
				c.flushRun()
				continue
			}
			// Everything is sent or the window is full.
			if o.rtoAt.IsZero() {
				o.rtoAt = o.now.Add(c.cfg.RTO)
			}
			return 0, true, nil
		}

		i := o.next
		if o.hole >= 0 {
			i = o.hole
		}
		seq := o.base + uint32(i)
		if o.attempts[i%window] == c.cfg.MaxAttempts {
			return sent, false, fmt.Errorf("fragment %d after %d attempts: %w", seq, c.cfg.MaxAttempts, errAttempts)
		}
		frag, flags := c.fragment(i), byte(0)
		if i == o.n-1 {
			flags = flagFrameEnd
		}
		size := headerLen + len(frag)
		if len(c.txScratch)+size > maxMTU {
			c.flushRun()
			continue
		}
		o.attempts[i%window]++
		if seq == c.txSeq {
			c.txSeq++
		}
		c.stats.TxAttempts++
		c.stats.TxAttemptBytes += int64(size)
		cum := uint64(c.stats.TxAttemptBytes)
		if c.loss.draw() {
			o.stale = true
			continue
		}
		alone := perPacket || i != o.next
		if alone {
			c.flushRun()
		}
		c.txScratch = encodePacket(roomFor(c.txScratch, size), pktData, flags, seq, cum, frag)
		if i == o.next {
			o.next++
		}
		if i == o.hole {
			o.hole = -1
		}
		o.rtoAt = time.Time{}
		if alone {
			c.flushRun()
		}
	}
}

// Read returns in-order reassembled stream bytes.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.ra.unread()) > 0 {
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
	fin := encodePacket(nil, pktFin, 0, seq, cum, nil)
	c.link.WritePackets(fin, len(fin))
	c.link.WritePackets(fin, len(fin))
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
