package flnet

import "sync/atomic"

// WireCounters accumulates frame-level byte counts — every frame written to
// (TX) or read from (RX) the wire, 5-byte frame headers included. The
// counters are what the bytes→joules radio model prices, replacing the
// analytic time model's estimate of transfer volume with the measured
// truth. Safe for concurrent use; the zero value is ready. All methods
// tolerate a nil receiver so uninstrumented paths stay branch-free.
type WireCounters struct {
	tx, rx atomic.Int64
}

// AddTx records n bytes written to the wire (negative: a frame booked ahead
// of its write, see handshake, did not make it).
func (w *WireCounters) AddTx(n int) {
	if w != nil {
		w.tx.Add(int64(n))
	}
}

// AddRx records n bytes read from the wire (negative as for AddTx).
func (w *WireCounters) AddRx(n int) {
	if w != nil {
		w.rx.Add(int64(n))
	}
}

// Tx returns the total bytes written.
func (w *WireCounters) Tx() int64 {
	if w == nil {
		return 0
	}
	return w.tx.Load()
}

// Rx returns the total bytes read.
func (w *WireCounters) Rx() int64 {
	if w == nil {
		return 0
	}
	return w.rx.Load()
}

// dgramMetered is implemented by datagram transports that account
// per-attempt packet bytes (fldgram.Conn). The coordinator type-asserts
// its conns against this rather than importing the transport package: a
// stream conn simply isn't metered, and any future transport that counts
// attempts plugs in by exposing the same four lifetime counters — this
// side's attempted and acknowledged data bytes, the peer's cumulative
// attempted bytes as carried in packet headers, and the unique data bytes
// received (all wire sizes, datagram headers included).
type dgramMetered interface {
	DgramCounters() (txAttemptBytes, txDeliveredBytes, peerAttemptBytes, rxDeliveredBytes int64)
}

// flusher is implemented by transports whose Write returns only once the
// peer acknowledges the frame (fldgram.Conn). Send puts a frame's first
// flight on the wire without waiting for the peer; Flush, which must follow
// a successful Send, waits for the acknowledgments and repairs losses.
type flusher interface {
	Send(p []byte) error
	Flush() (int, error)
}
