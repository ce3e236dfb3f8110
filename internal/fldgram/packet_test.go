package fldgram

import (
	"bytes"
	"testing"
)

func TestPacketRoundTrip(t *testing.T) {
	payload := []byte("federated edge intelligence")
	pkt := encodePacket(nil, pktData, flagFrameEnd, 42, 1<<40+7, payload)
	if len(pkt) != headerLen+len(payload) {
		t.Fatalf("packet length %d, want %d", len(pkt), headerLen+len(payload))
	}
	typ, flags, seq, ab, got, ok := decodePacket(pkt)
	if !ok {
		t.Fatal("decodePacket rejected a valid packet")
	}
	if typ != pktData || flags != flagFrameEnd || seq != 42 || ab != 1<<40+7 {
		t.Fatalf("decoded (%x, %x, %d, %d)", typ, flags, seq, ab)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q, want %q", got, payload)
	}
}

func TestPacketRejectsMutations(t *testing.T) {
	pkt := encodePacket(nil, pktData, 0, 7, 999, []byte("abcdefgh"))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated header", func(p []byte) []byte { return p[:headerLen-1] }},
		{"truncated payload", func(p []byte) []byte { return p[:len(p)-1] }},
		{"extended", func(p []byte) []byte { return append(p, 0) }},
		{"empty", func(p []byte) []byte { return nil }},
		{"type flip", func(p []byte) []byte { p[0] = 'X'; return p }},
		{"flag flip", func(p []byte) []byte { p[1] ^= 0x80; return p }},
		{"length flip", func(p []byte) []byte { p[2] ^= 1; return p }},
		{"seq flip", func(p []byte) []byte { p[5] ^= 1; return p }},
		{"counter flip", func(p []byte) []byte { p[12] ^= 1; return p }},
		{"crc flip", func(p []byte) []byte { p[17] ^= 1; return p }},
		{"payload flip", func(p []byte) []byte { p[headerLen+3] ^= 1; return p }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), pkt...))
			if _, _, _, _, _, ok := decodePacket(mutated); ok {
				t.Fatal("decodePacket accepted a mutated packet")
			}
		})
	}
}

func TestReassemblerInOrder(t *testing.T) {
	var ra reassembler
	var want []byte
	for seq := uint32(0); seq < 5; seq++ {
		payload := bytes.Repeat([]byte{byte('a' + seq)}, 3)
		want = append(want, payload...)
		pkt := encodePacket(nil, pktData, 0, seq, 0, payload)
		ackSeq, ack := ra.absorb(pkt)
		if !ack || ackSeq != seq {
			t.Fatalf("seq %d: ack=%v ackSeq=%d", seq, ack, ackSeq)
		}
	}
	got := make([]byte, len(want))
	if n := ra.read(got); n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes %q, want %q", n, got[:n], want)
	}
	if ra.deliveredPackets != 5 || ra.dupPackets != 0 {
		t.Fatalf("delivered=%d dup=%d", ra.deliveredPackets, ra.dupPackets)
	}
}

// TestReassemblerDupAndAhead pins the hold: a packet ahead of the frontier
// is held and not acknowledged, and delivered exactly once when the hole
// before it fills; one window or more ahead is dropped; a duplicate of a
// held or a delivered packet is counted and re-acknowledged at the
// frontier, never delivered twice.
func TestReassemblerDupAndAhead(t *testing.T) {
	var ra reassembler
	pkt := func(seq uint32, s string) []byte { return encodePacket(nil, pktData, 0, seq, 0, []byte(s)) }
	p0, p1, p2 := pkt(0, "one"), pkt(1, "two"), pkt(2, "three")

	// Ahead of the frontier: held, no ack, nothing delivered.
	if _, ack := ra.absorb(p2); ack {
		t.Fatal("acked a packet ahead of the frontier")
	}
	if ra.held != 1 || ra.next != 0 || len(ra.unread()) != 0 {
		t.Fatalf("ahead packet: held %d next %d buffered %d, want 1 0 0", ra.held, ra.next, len(ra.unread()))
	}
	// Duplicate of a held packet: a dup, re-acked at the empty frontier.
	if ackSeq, ack := ra.absorb(p2); !ack || ackSeq != ^uint32(0) || ra.dupPackets != 1 || ra.held != 1 {
		t.Fatalf("dup of held: ack=%v seq=%d dup=%d held=%d", ack, ackSeq, ra.dupPackets, ra.held)
	}
	// In order, but the hole at 1 remains: p2 stays held.
	if ackSeq, ack := ra.absorb(p0); !ack || ackSeq != 0 || ra.held != 1 {
		t.Fatalf("in order: ack=%v seq=%d held=%d", ack, ackSeq, ra.held)
	}
	// With next = 1, seq window is the last a slot holds; window+1 is dropped.
	edge, far := pkt(window, "edge"), pkt(window+1, "far")
	for _, p := range [][]byte{edge, far} {
		if _, ack := ra.absorb(p); ack {
			t.Fatal("acked a packet ahead of the frontier")
		}
	}
	if ra.held != 2 {
		t.Fatalf("held %d, want 2: p2 and the packet window−1 ahead", ra.held)
	}
	// The hole fills: p1 and the held p2 are delivered, once each.
	if ackSeq, ack := ra.absorb(p1); !ack || ackSeq != 2 {
		t.Fatalf("hole filled: ack=%v seq=%d, want the frontier past p2", ack, ackSeq)
	}
	// Duplicate of a delivered packet: re-acked at the frontier.
	if ackSeq, ack := ra.absorb(p2); !ack || ackSeq != 2 {
		t.Fatalf("dup: ack=%v seq=%d", ack, ackSeq)
	}
	// Filling every later hole releases the edge packet, never the far one.
	want := "onetwothree"
	for seq := uint32(3); seq < window; seq++ {
		ra.absorb(pkt(seq, "x"))
		want += "x"
	}
	want += "edge"
	buf := make([]byte, 2*len(want))
	n := ra.read(buf)
	if got := string(buf[:n]); got != want {
		t.Fatalf("stream %q, want %q", got, want)
	}
	if ra.next != window+1 || ra.held != 0 {
		t.Fatalf("next %d held %d, want %d and 0: the packet window ahead was held", ra.next, ra.held, window+1)
	}
	if ra.dupPackets != 2 || ra.aheadPackets != 3 || ra.deliveredPackets != window+1 {
		t.Fatalf("dup=%d ahead=%d delivered=%d", ra.dupPackets, ra.aheadPackets, ra.deliveredPackets)
	}
}

func TestReassemblerTracksPeerAttempts(t *testing.T) {
	var ra reassembler
	ra.absorb(encodePacket(nil, pktData, 0, 0, 100, nil))
	ra.absorb(encodePacket(nil, pktData, 0, 0, 90, nil)) // stale dup: counter must not regress
	if ra.peerAttemptBytes != 100 {
		t.Fatalf("peerAttemptBytes=%d, want 100", ra.peerAttemptBytes)
	}
	ra.absorb(encodePacket(nil, pktFin, 0, 1, 250, nil))
	if !ra.finSeen || ra.peerAttemptBytes != 250 {
		t.Fatalf("finSeen=%v peerAttemptBytes=%d", ra.finSeen, ra.peerAttemptBytes)
	}
}
