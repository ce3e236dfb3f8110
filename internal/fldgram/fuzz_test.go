package fldgram

import (
	"bytes"
	"testing"

	"eefei/internal/mat"
)

// FuzzReassembly drives the receive half of a Conn with a script of
// hostile datagrams — duplicated, reordered, truncated, bit-flipped,
// overlapping, and raw garbage — interleaved with valid fragments of a
// known stream. The properties:
//
//  1. absorb never panics, whatever the datagram;
//  2. the delivered stream is always an exact prefix of the true in-order
//     stream — no corrupted, duplicated, or reordered byte is ever handed
//     to Read, though a fragment that runs ahead of a hole is held for it;
//  3. the in-order frontier only advances on valid in-sequence fragments,
//     and the delivered byte count matches it exactly.
//
// Reads are script ops too: 1–4 bytes (flnet reads a 4-byte length, then
// the body) or the rest, so partial reads, and the compaction a delivery
// makes behind them, are fuzzed; whatever is left is read at the end.
//
// The checked-in seed corpus (testdata/fuzz/FuzzReassembly) covers each
// mutation class; `go test` replays it on every run, and verify.sh runs a
// short live fuzz on top.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7}) // in order
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2})             // duplicates
	f.Add([]byte{0, 3, 0, 1, 0, 0, 0, 2, 0, 1, 0, 3})             // reordered
	f.Add([]byte{1, 5, 1, 19, 0, 0, 1, 7, 0, 1})                  // truncations
	f.Add([]byte{2, 9, 0, 0, 2, 33, 0, 1, 2, 250})                // bit flips
	f.Add([]byte{4, 0, 0, 0, 4, 3, 0, 1, 4, 255})                 // overlapping
	f.Add([]byte{3, 200, 3, 0, 3, 7, 0, 0, 3, 19, 0, 1})          // raw garbage
	f.Add([]byte{0, 7, 0, 5, 0, 6, 0, 3, 0, 1, 0, 2, 0, 0, 0, 4}) // all held, then released
	f.Add([]byte{0, 2, 0, 4, 0, 2, 0, 0, 0, 4, 0, 1, 0, 3, 0, 2}) // dups of held packets
	f.Add([]byte{0, 1, 1, 9, 0, 0, 2, 17, 0, 2, 0, 3})            // held, hole filled past garbage

	// flnet's pattern: a 4-byte header read, then the body.
	f.Add([]byte{0, 0, 0, 1, 5, 4, 5, 0, 0, 2, 0, 3, 5, 4, 5, 0})
	// Partial reads between deliveries, so deliver compacts.
	f.Add([]byte{0, 0, 5, 1, 0, 1, 5, 2, 0, 2, 5, 3, 0, 3, 5, 4, 0, 4, 5, 1, 0, 5, 0, 6, 0, 7})

	f.Fuzz(func(t *testing.T, script []byte) {
		// Ground truth: 8 fragments of varied sizes from a fixed RNG.
		const frags = 8
		rng := mat.NewRNG(1)
		payloads := make([][]byte, frags)
		packets := make([][]byte, frags)
		var want []byte
		for i := range payloads {
			p := make([]byte, 1+i*37)
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
			payloads[i] = p
			want = append(want, p...)
			packets[i] = encodePacket(nil, pktData, 0, uint32(i), uint64(i)*100, p)
		}

		var ra reassembler
		var delivered []byte
		read := func(n int) {
			tmp := make([]byte, n)
			delivered = append(delivered, tmp[:ra.read(tmp)]...)
		}
		for pos := 0; pos+1 < len(script); pos += 2 {
			op, arg := script[pos], script[pos+1]
			var pkt []byte
			switch op % 6 {
			case 0: // a valid fragment, possibly out of order or duplicated
				pkt = packets[int(arg)%frags]
			case 1: // truncated at an arbitrary point
				src := packets[int(arg)%frags]
				pkt = src[:int(arg)%(len(src)+1)]
			case 2: // one byte flipped anywhere in the packet
				src := append([]byte(nil), packets[int(arg)%frags]...)
				src[int(arg)%len(src)] ^= arg | 1
				pkt = src
			case 3: // raw garbage lifted from the script itself
				n := int(arg)
				if n > len(script)-pos {
					n = len(script) - pos
				}
				pkt = script[pos : pos+n]
			case 4: // two fragments glued into one datagram (overlap)
				pkt = append(append([]byte(nil), packets[int(arg)%frags]...),
					packets[(int(arg)+1)%frags]...)
			case 5: // a Read of 1–4 bytes, or of the rest
				if n := int(arg) % 5; n > 0 {
					read(n)
				} else {
					read(len(ra.unread()))
				}
				continue
			}
			ra.absorb(pkt)
		}
		read(len(ra.unread()))

		if !bytes.HasPrefix(want, delivered) {
			t.Fatalf("delivered %d bytes that are not a prefix of the true stream", len(delivered))
		}
		if int(ra.next) > frags {
			t.Fatalf("frontier %d advanced past the %d real fragments", ra.next, frags)
		}
		expect := 0
		for i := 0; i < int(ra.next); i++ {
			expect += len(payloads[i])
		}
		if len(delivered) != expect {
			t.Fatalf("delivered %d bytes, frontier %d implies %d", len(delivered), ra.next, expect)
		}
		if ra.deliveredPackets != int64(ra.next) {
			t.Fatalf("deliveredPackets %d != frontier %d", ra.deliveredPackets, ra.next)
		}
	})
}

// FuzzCoalesced drives the split every reader makes of a coalesced
// datagram — segment at the size its UDP_GRO control message declares, as
// recvLoop and the Listener do — with runs no honest kernel returns: the
// true stream's packets in any order, repeated or cut short, then raw
// bytes, at any declared size (0, 1, past the run, not dividing it). A
// non-empty control buffer overrides the size, as on the socket path.
// Arbitrary bytes must never panic, and what the reassembler delivers is a
// prefix of the true stream.
func FuzzCoalesced(f *testing.F) {
	const frags, payload = 6, 40
	in := []byte{0, 1, 2, 3, 4, 5}
	for _, size := range []int{0, 1, headerLen + payload, headerLen + payload + 1, 37, 1 << 20} {
		f.Add(in, size, []byte(nil))
	}
	f.Add([]byte{0, 1, 0x42, 2, 3}, headerLen+payload, []byte(nil)) // packet 2 cut short mid-run
	f.Add([]byte{1, 0, 0, 2, 0x80, 7, 7}, headerLen+payload, []byte(nil))
	f.Add(in, 0, groMessage(headerLen+payload))
	for _, oob := range hostileOOB() {
		f.Add(in, 0, oob)
	}

	f.Fuzz(func(t *testing.T, script []byte, size int, oob []byte) {
		// Ground truth: frags equal packets, the last one shorter.
		rng := mat.NewRNG(2)
		var want []byte
		packets := make([][]byte, frags)
		for i := range packets {
			p := make([]byte, payload-(i/(frags-1))*(payload/2))
			for j := range p {
				p[j] = byte(rng.Uint64())
			}
			want = append(want, p...)
			packets[i] = encodePacket(nil, pktData, 0, uint32(i), 0, p)
		}
		// The run: each script byte picks a packet (bit 6 cuts it in half)
		// until one with bit 7 set hands the rest of the script over raw.
		var run []byte
		for i, op := range script {
			if op&0x80 != 0 {
				run = append(run, script[i:]...)
				break
			}
			pkt := packets[int(op&0x3f)%frags]
			if op&0x40 != 0 {
				pkt = pkt[:len(pkt)/2]
			}
			run = append(run, pkt...)
		}
		if len(oob) > 0 {
			size = groSize(oob)
		}
		var ra reassembler
		for pkt, rest := segment(run, size); pkt != nil; pkt, rest = segment(rest, size) {
			ra.absorb(pkt)
		}
		if got := ra.unread(); !bytes.HasPrefix(want, got) {
			t.Fatalf("delivered %d bytes that are not a prefix of the true stream", len(got))
		}
	})
}
