package fldgram

import (
	"context"
	"net"
	"testing"
)

// faults are the carrier faults a faultLink injects, each with its own
// probability: a data packet delivered twice, a data packet held back and
// released after the next one, an ACK lost. A Conn injects none of them: the
// paper's link loses data attempts and nothing else.
type faults struct{ dup, reorder, ackLoss float64 }

// faultLink is a carrier that duplicates, reorders and loses ACKs beneath
// one Conn, so the tests can check that the ARQ repairs what a real carrier
// may do. Each fault draws from a seeded stream of its own, once per data
// packet (dup, hold) or per ACK, so which packet it hits is a pure function
// of the seed and the packet's place on the carrier.
//
// Reordering makes GoBacks timing-dependent: a held-back packet opens a hole
// whose gap ACK races the packet's late arrival, so whether the hole is
// resent (a GoBack, one more attempt) depends on scheduling. Duplication and
// ACK loss leave a Conn's counters a function of the seeds and the byte
// stream.
//
// It takes no lock: its Conn serializes WritePackets under sendMu.
type faultLink struct {
	PacketLink
	dup, hold, ackLoss chance
	held               []byte // a data packet held back until the next one goes; nil: none
}

// newFaultLink wraps link for the Conn that newConn(…, idx) builds from seed.
// The streams are seeded as the Conn seeds its loss stream, under tags of
// their own.
func newFaultLink(link PacketLink, seed uint64, idx int, f faults) *faultLink {
	data, ack := mixSeed(seed, idx, 1), mixSeed(seed, idx, 2)
	return &faultLink{
		PacketLink: link,
		dup:        newChance(mixSeed(data, 0, 6), f.dup),
		hold:       newChance(mixSeed(data, 0, 7), f.reorder),
		ackLoss:    newChance(mixSeed(ack, 0, 5), f.ackLoss),
	}
}

// WritePackets passes a stretch of plain data packets on as one run. A
// duplicated packet, a held one and every packet while one is held go as runs
// of their own, so the carrier sees the order it would one packet at a time.
func (l *faultLink) WritePackets(run []byte, size int) error {
	switch {
	case run[0] == pktAck && l.ackLoss.draw():
		return nil
	case run[0] != pktData:
		return l.PacketLink.WritePackets(run, size)
	}
	start, off := 0, 0 // the plain stretch not yet sent is run[start:off]
	for p, rest := segment(run, size); p != nil; p, rest = segment(rest, size) {
		dup, hold := l.dup.draw(), l.hold.draw()
		if dup || hold || l.held != nil {
			if off > start {
				l.PacketLink.WritePackets(run[start:off], size)
			}
			if hold && l.held == nil {
				l.held = append([]byte(nil), p...)
			} else {
				l.PacketLink.WritePackets(p, len(p))
				if dup {
					l.PacketLink.WritePackets(p, len(p))
				}
				if l.held != nil {
					l.PacketLink.WritePackets(l.held, len(l.held))
					l.held = nil
				}
			}
			start = off + len(p)
		}
		off += len(p)
	}
	if off > start {
		return l.PacketLink.WritePackets(run[start:off], size)
	}
	return nil
}

// faultPipe is Pipe with both ends under a faultLink injecting f.
func faultPipe(cfg Config, f faults) (*Conn, *Conn) {
	la, lb := pipeLinks()
	return newConn(newFaultLink(la, cfg.Seed, 0, f), cfg, 0),
		newConn(newFaultLink(lb, cfg.Seed, 1, f), cfg, 1)
}

// udpFaultPair connects two Conns over loopback UDP, each on a socket of
// its own with offload as the links set it up, under a faultLink injecting
// f. Both are closed with the test.
func udpFaultPair(t *testing.T, cfg Config, f faults) (a, b *Conn) {
	t.Helper()
	// ua takes pc's address beside it (SO_REUSEPORT), as a Listener's peer
	// socket does, so there is no moment the address is free.
	pc, err := (&net.ListenConfig{Control: reusePort}).ListenPacket(context.Background(), "udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer pc.Close()
	ub, err := net.DialUDP("udp", nil, pc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	ua, err := (&net.Dialer{LocalAddr: pc.LocalAddr(), Control: reusePort}).Dial("udp", ub.LocalAddr().String())
	if err != nil {
		ub.Close()
		t.Fatalf("dial back: %v", err)
	}
	mtu := cfg.withDefaults().MTU
	a = newConn(newFaultLink(&udpLink{uc: newUDPSocket(ua.(*net.UDPConn), mtu)}, cfg.Seed, 0, f), cfg, 0)
	b = newConn(newFaultLink(&udpLink{uc: newUDPSocket(ub, mtu)}, cfg.Seed, 1, f), cfg, 1)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}
