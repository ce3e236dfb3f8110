package fldgram

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
)

// Packet layout (big-endian), headerLen = 20 bytes:
//
//	[0]     type    (pktData | pktAck | pktFin)
//	[1]     flags   (data: flagFrameEnd, last fragment of one Write; ack:
//	        flagGap, a packet past the frontier provoked this ACK)
//	[2:4]   payload length
//	[4:8]   sequence number (data: fragment seq; ack: highest in-order
//	        fragment received)
//	[8:16]  sender's cumulative attempted data bytes, headers included
//	[16:20] CRC-32C over header[0:16] ++ payload
//
// The CRC turns "never deliver a corrupted frame" into a checkable
// property: a truncated, bit-flipped, or mis-split datagram fails the
// checksum and is dropped, leaving the ARQ to retransmit.
const (
	headerLen = 20

	pktData = 0x44 // 'D'
	pktAck  = 0x41 // 'A'
	pktFin  = 0x46 // 'F'

	flagFrameEnd = 0x01
	flagGap      = 0x02
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodePacket appends one packet to buf and returns the extended slice.
// The CRC covers header bytes [0:16] and the payload, skipping its own slot.
func encodePacket(buf []byte, typ, flags byte, seq uint32, attemptBytes uint64, payload []byte) []byte {
	var zero [headerLen]byte
	off := len(buf)
	buf = append(buf, zero[:]...)
	buf = append(buf, payload...)
	pkt := buf[off:]
	pkt[0] = typ
	pkt[1] = flags
	binary.BigEndian.PutUint16(pkt[2:4], uint16(len(payload)))
	binary.BigEndian.PutUint32(pkt[4:8], seq)
	binary.BigEndian.PutUint64(pkt[8:16], attemptBytes)
	crc := crc32.Checksum(pkt[:16], crcTable)
	crc = crc32.Update(crc, crcTable, pkt[headerLen:])
	binary.BigEndian.PutUint32(pkt[16:20], crc)
	return buf
}

// decodePacket validates one datagram and splits it into its parts. ok is
// false for any malformed packet: short, length mismatch, unknown type, or
// checksum failure. payload aliases pkt.
func decodePacket(pkt []byte) (typ, flags byte, seq uint32, attemptBytes uint64, payload []byte, ok bool) {
	if len(pkt) < headerLen {
		return 0, 0, 0, 0, nil, false
	}
	typ = pkt[0]
	if typ != pktData && typ != pktAck && typ != pktFin {
		return 0, 0, 0, 0, nil, false
	}
	n := int(binary.BigEndian.Uint16(pkt[2:4]))
	if len(pkt) != headerLen+n {
		return 0, 0, 0, 0, nil, false
	}
	want := binary.BigEndian.Uint32(pkt[16:20])
	crc := crc32.Checksum(pkt[:16], crcTable)
	crc = crc32.Update(crc, crcTable, pkt[headerLen:])
	if crc != want {
		return 0, 0, 0, 0, nil, false
	}
	flags = pkt[1]
	seq = binary.BigEndian.Uint32(pkt[4:8])
	attemptBytes = binary.BigEndian.Uint64(pkt[8:16])
	return typ, flags, seq, attemptBytes, pkt[headerLen:], true
}

// reassembler is the receive half of one Conn: it accepts raw datagrams in
// any order and exposes a strictly in-order byte stream. It appends a
// fragment at the frontier (seq == next), recognises a duplicate (seq <
// next, or one already held), holds a fragment up to window ahead in a slot
// ring it allocates on first use, and drops anything further ahead, corrupt
// or truncated. A held fragment is delivered once the hole before it fills.
// Injected drops never reach the carrier, so fragments arrive in order
// unless the carrier itself lost or reordered one; holding the rest means
// the sender resends the hole alone, not the flight behind it. It never
// delivers bytes from a packet that fails the CRC, and it never delivers a
// fragment twice.
type reassembler struct {
	// next is the next in-order data sequence number expected.
	next uint32
	// buf[off:] holds delivered in-order stream bytes awaiting Read.
	buf []byte
	off int
	// ring holds validated packets ahead of next at seq%window, an empty
	// slot meaning none; held counts the full ones.
	ring [][]byte
	held int
	// finSeen is set when a FIN packet arrives: the peer is gone.
	finSeen bool
	// peerAttemptBytes is the highest cumulative attempted-byte counter
	// seen in any valid header from the peer.
	peerAttemptBytes uint64

	// Counters (all monotone):
	deliveredPackets int64 // unique data packets delivered in order
	deliveredBytes   int64 // their wire size, headers included
	dupPackets       int64 // retransmissions/duplicates of delivered or held data
	aheadPackets     int64 // data ahead of next (the carrier lost or reordered one)
	invalidPackets   int64 // short/corrupt/unknown datagrams
}

// absorb processes one raw datagram. ack reports whether the fragment was
// in order or a duplicate and ackSeq the sequence number an acknowledgment
// of it carries (the highest in-order fragment received, i.e. next−1). When
// one is actually sent is the Conn's policy (process).
func (ra *reassembler) absorb(pkt []byte) (ackSeq uint32, ack bool) {
	typ, _, seq, attemptBytes, payload, ok := decodePacket(pkt)
	if !ok {
		ra.invalidPackets++
		return 0, false
	}
	if attemptBytes > ra.peerAttemptBytes {
		ra.peerAttemptBytes = attemptBytes
	}
	switch typ {
	case pktFin:
		ra.finSeen = true
		return 0, false
	case pktAck:
		// ACKs are the sender's business; the Conn routes them before
		// calling absorb. Seeing one here (e.g. under fuzzing) is a no-op.
		return 0, false
	}
	switch {
	case seq == ra.next:
		ra.deliver(pkt, payload)
		// The hole is filled: deliver what was held behind it.
		for ra.held > 0 && len(ra.ring[ra.next%window]) > 0 {
			i := ra.next % window
			ra.deliver(ra.ring[i], ra.ring[i][headerLen:])
			ra.ring[i], ra.held = ra.ring[i][:0], ra.held-1
		}
		return ra.next - 1, true
	case seq < ra.next || (seq-ra.next < window && len(ra.ring) > 0 && len(ra.ring[seq%window]) > 0):
		// Duplicate of a delivered or held fragment: its ACK was lost or
		// slow. Re-acknowledge the current in-order frontier.
		ra.dupPackets++
		return ra.next - 1, true
	default:
		// Ahead of the in-order frontier: the carrier lost or reordered
		// what came before. Held when it fits the ring, else dropped; the
		// Conn answers with a gap ACK either way.
		ra.aheadPackets++
		if seq-ra.next < window {
			if ra.ring == nil {
				ra.ring = make([][]byte, window)
			}
			ra.ring[seq%window] = append(ra.ring[seq%window], pkt...)
			ra.held++
		}
		return 0, false
	}
}

// deliver appends one in-order fragment to the stream, moving the unread
// bytes to the front of buf first if the append would outgrow it.
func (ra *reassembler) deliver(pkt, payload []byte) {
	if ra.off > 0 && len(ra.buf)+len(payload) > cap(ra.buf) {
		ra.buf, ra.off = ra.buf[:copy(ra.buf, ra.buf[ra.off:])], 0
	}
	ra.buf = append(roomFor(ra.buf, len(payload)), payload...)
	ra.next++
	ra.deliveredPackets++
	ra.deliveredBytes += int64(len(pkt))
}

// roomFor returns buf with room for n more bytes. A buffer that must grow
// while it already holds a packet (a run or a frame spans packets) grows
// to maxMTU at once, room for a whole run or model frame, instead of by
// doubling: a Conn allocates each of its buffers at full size once, and
// never at that size while it carries only single-packet frames.
func roomFor(buf []byte, n int) []byte {
	if len(buf) == 0 || len(buf)+n <= cap(buf) {
		return buf
	}
	return slices.Grow(buf, max(n, maxMTU-len(buf)))
}

// unread returns the delivered bytes awaiting Read.
func (ra *reassembler) unread() []byte { return ra.buf[ra.off:] }

// read moves up to len(p) delivered bytes into p, advancing past them
// rather than shifting the rest down.
func (ra *reassembler) read(p []byte) int {
	n := copy(p, ra.unread())
	ra.off += n
	if ra.off == len(ra.buf) {
		ra.buf, ra.off = ra.buf[:0], 0
	}
	return n
}
