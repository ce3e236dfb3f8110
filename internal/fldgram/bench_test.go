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
	a, c := Pipe(Config{Seed: 1}, Config{Seed: 2})
	defer a.Close()
	defer c.Close()
	frame := make([]byte, 8192)
	for i := range frame {
		frame[i] = byte(i)
	}
	got := make([]byte, len(frame))
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(frame))
		for i := 0; i < b.N; i++ {
			if _, err := readFull(c, buf); err != nil {
				done <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Write(frame); err != nil {
			b.Fatalf("write: %v", err)
		}
		if _, err := readFull(a, got); err != nil {
			b.Fatalf("read: %v", err)
		}
	}
	b.StopTimer()
	if err := <-done; err != nil {
		b.Fatalf("echo: %v", err)
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
