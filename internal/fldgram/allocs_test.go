//go:build !race

package fldgram

import "testing"

// The pins below lean on sync.Pool keeping its buffers, which it does not
// under the race detector; hence the build tag on the file.

// TestPacketCodecAllocationFree pins the per-datagram fixed cost: one encode
// and one decode of an MTU-sized data packet into a reused buffer touch the
// heap not at all.
func TestPacketCodecAllocationFree(t *testing.T) {
	payload := make([]byte, DefaultMTU-headerLen)
	buf := make([]byte, 0, DefaultMTU)
	allocs := testing.AllocsPerRun(200, func() {
		buf = encodePacket(buf[:0], pktData, flagFrameEnd, 7, 7, payload)
		if _, _, _, _, _, ok := decodePacket(buf); !ok {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("encodePacket+decodePacket allocate %v per packet, want 0", allocs)
	}
	t.Logf("encodePacket+decodePacket allocate %v per packet", allocs)
}

// TestPipeFrameAllocationFree pins the warm ARQ path end to end: an 8 KiB
// frame written into one end of a lossless Pipe and echoed back by the other
// — fragmentation, the window, cumulative ACKs, reassembly, both directions —
// allocates nothing once the queue buffers are pooled.
func TestPipeFrameAllocationFree(t *testing.T) {
	echo := echoPipe(t, 8192)
	for i := 0; i < 3; i++ {
		echo()
	}
	allocs := testing.AllocsPerRun(100, echo)
	if allocs != 0 {
		t.Errorf("one echoed 8 KiB frame allocates %v objects, want 0", allocs)
	}
	t.Logf("one echoed 8 KiB frame allocates %v objects", allocs)
}
