package fldgram

import (
	"testing"
)

// BenchmarkPacketCodec prices the per-datagram fixed cost of the transport:
// one encode (header fill + CRC-32C over header and payload) and one decode
// (validation + CRC check) of an MTU-sized data packet, into a reused buffer
// — 0 allocs/op is the pin, matching the Conn's scratch-buffer discipline.
func BenchmarkPacketCodec(b *testing.B) {
	payload := make([]byte, DefaultMTU-headerLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, 0, DefaultMTU)
	b.SetBytes(int64(DefaultMTU))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodePacket(buf[:0], pktData, flagFrameEnd, uint32(i), uint64(i), payload)
		if _, _, _, _, _, ok := decodePacket(buf); !ok {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkConnFrameLossless measures one 8 KiB frame end to end through the
// in-memory pipe at loss 0: fragmentation into MTU-sized packets, the
// windowed ARQ with its cumulative ACKs, reassembly, and the frame-end
// boundary.
func BenchmarkConnFrameLossless(b *testing.B) {
	echo := echoPipe(b, 8192)
	b.SetBytes(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		echo()
	}
}

// echoPipe opens a lossless Pipe whose far end sends every n-byte frame
// straight back, and returns a function that writes one frame into the near
// end and reads its echo. The pipe closes with the test.
func echoPipe(tb testing.TB, n int) func() {
	a, c := Pipe(Config{Seed: 1}, Config{Seed: 2})
	tb.Cleanup(func() {
		a.Close()
		c.Close()
	})
	go func() {
		defer c.Close() // a failed echo must fail the near end's read, not hang it
		buf := make([]byte, n)
		for {
			if _, err := readFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	frame, got := make([]byte, n), make([]byte, n)
	for i := range frame {
		frame[i] = byte(i)
	}
	return func() {
		if _, err := a.Write(frame); err != nil {
			tb.Fatalf("write: %v", err)
		}
		if _, err := readFull(a, got); err != nil {
			tb.Fatalf("read: %v", err)
		}
	}
}

// readFull reads exactly len(p) bytes (io.ReadFull without the interface
// indirection, so the benchmark loop stays allocation-free).
func readFull(c *Conn, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := c.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
