// Package fldgram is a datagram-shaped transport for the federated wire
// path: an NB-IoT-flavoured lossy link under the reliable byte stream that
// internal/flnet's protocol expects. It exists to close the loop on the
// paper's Eq. 4 — the claim that delivering data over an unreliable radio
// costs ρ/p per delivered unit, a geometric number of constant-cost
// attempts — against bytes actually put on a link, rather than against the
// analytic constant alone.
//
// The shape:
//
//   - Every Write is one frame, fragmented into MTU-sized datagrams with a
//     20-byte header (type, flags, length, sequence number, the sender's
//     cumulative attempted-byte counter, and a CRC-32C over the packet).
//   - A go-back-N ARQ with a fixed window of 8 packets delivers fragments
//     in order: the receiver acknowledges cumulatively, by packet count
//     (every fourth in-order packet and every frame end), and each data
//     packet is retransmitted until an ACK covers it, so with a per-attempt
//     delivery probability p the attempt count per fragment is exactly the
//     geometric distribution of iot.Unlicensed, and attempted/delivered
//     bytes converge to 1/p.
//   - Loss, duplication, and reordering are injected deterministically by
//     seeded faultnet.PacketInjector streams owned by each Conn. An
//     injected drop is decided at the sender before the packet touches the
//     carrier: the attempt is counted (and priced — the radio transmitted),
//     the send and the RTO wait are both skipped, and the ARQ retransmits
//     immediately. Attempt counts are therefore a pure function of the
//     seed and the byte stream, independent of timing, and tests run at
//     memory speed. Genuine carrier loss is what the receiver's gap ACK
//     (one round trip) and the RTO (a loss at the tail) repair, by going
//     back to the ACK frontier; Stats.GoBacks counts it.
//   - Both ends count attempted and delivered bytes, and every packet
//     header carries the sender's cumulative attempted bytes, so a
//     receiver knows the peer's spend without touching the payload
//     protocol. flnet snapshots these counters around each round to
//     surface attempted-vs-delivered bytes in round records and traces.
//
// Carriers: Pipe wires two Conns through in-memory channels (deterministic
// tests), and Listen/Dialer run the same Conn over a UDP socket (the
// cmd/fedcoord and cmd/fededge `-transport dgram` path).
package fldgram

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Defaults for Config fields left zero.
const (
	// DefaultMTU is the default datagram size cap, header included —
	// conservative for UDP over Ethernet without fragmentation.
	DefaultMTU = 1200
	// DefaultRTO is the default retransmission timeout for genuine
	// (non-injected) carrier loss.
	DefaultRTO = 250 * time.Millisecond
	// DefaultMaxAttempts is the default per-fragment attempt cap before
	// the connection is declared lost.
	DefaultMaxAttempts = 256

	// minMTU leaves room for the header plus a useful payload.
	minMTU = 64
	// maxMTU is the largest UDP payload.
	maxMTU = 65507
)

// ErrTransport is returned (wrapped) for invalid configurations and failed
// transport operations.
var ErrTransport = errors.New("fldgram: transport error")

// errClosed reports use of a closed Conn.
var errClosed = fmt.Errorf("connection closed: %w", ErrTransport)

// errAttempts reports a fragment that exhausted its attempt budget.
var errAttempts = fmt.Errorf("max attempts exhausted: %w", ErrTransport)

// Config describes one endpoint of a datagram transport. The zero value is
// a reliable link at the defaults above.
type Config struct {
	// MTU caps each datagram, header included. 0 = DefaultMTU; otherwise
	// it must lie in [64, 65507]. The two ends of a link may differ: a
	// receiver accepts any datagram up to the UDP maximum.
	MTU int
	// RTO is the retransmission timeout for packets that were genuinely
	// sent and not acknowledged. 0 = DefaultRTO.
	RTO time.Duration
	// MaxAttempts caps transmissions per fragment; exceeding it fails the
	// connection. 0 = DefaultMaxAttempts.
	MaxAttempts int
	// Seed drives the injected-fault decisions. Each Conn derives
	// independent per-direction streams from it and its creation index.
	Seed uint64
	// SuccessProb, when in (0,1), is the per-attempt delivery probability
	// for data packets: each attempt is dropped with probability
	// 1−SuccessProb by a seeded faultnet.PacketInjector. 0 or 1 = reliable.
	SuccessProb float64
	// AckSuccessProb is the same for ACK packets. ACK loss costs extra
	// data retransmissions, inflating measured attempts/delivered above
	// the 1/p of data loss alone — keep it at 1 (the default) when
	// validating Eq. 4, which models data-attempt loss only.
	AckSuccessProb float64
	// DupProb duplicates data packets with the given probability.
	DupProb float64
	// ReorderProb holds a data packet back one slot (swapped with its
	// successor) with the given probability.
	ReorderProb float64
	// Meter, when non-nil, accumulates attempt/delivery totals across
	// every Conn of this endpoint (all conns of a Listener, or all conns
	// made by a Dialer).
	Meter *Meter
}

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.RTO == 0 {
		cfg.RTO = DefaultRTO
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	return cfg
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.MTU < minMTU || cfg.MTU > maxMTU {
		return fmt.Errorf("mtu %d outside [%d, %d]: %w", cfg.MTU, minMTU, maxMTU, ErrTransport)
	}
	if cfg.RTO < 0 {
		return fmt.Errorf("rto %v negative: %w", cfg.RTO, ErrTransport)
	}
	if cfg.MaxAttempts < 1 {
		return fmt.Errorf("max attempts %d < 1: %w", cfg.MaxAttempts, ErrTransport)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"success", cfg.SuccessProb}, {"ack success", cfg.AckSuccessProb}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s probability %v outside [0,1]: %w", p.name, p.v, ErrTransport)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"dup", cfg.DupProb}, {"reorder", cfg.ReorderProb}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("%s probability %v outside [0,1): %w", p.name, p.v, ErrTransport)
		}
	}
	return nil
}

// ResolveSuccessProb resolves the CLI-level -transport/-loss/-success-prob
// triple shared by fedcoord and fededge to the effective per-attempt
// delivery probability: 1 on the stream transport (where the datagram knobs
// are rejected as meaningless), and p = 1-loss or the explicit success
// probability on dgram. Setting both contradictory knobs is an error.
func ResolveSuccessProb(transport string, loss, successProb float64) (float64, error) {
	switch transport {
	case "stream":
		if loss != 0 || successProb != 0 {
			return 1, fmt.Errorf("-loss/-success-prob require -transport dgram: %w", ErrTransport)
		}
		return 1, nil
	case "dgram":
	default:
		return 1, fmt.Errorf("unknown -transport %q (stream or dgram): %w", transport, ErrTransport)
	}
	if loss != 0 && successProb != 0 {
		return 1, fmt.Errorf("set -loss or -success-prob, not both: %w", ErrTransport)
	}
	if loss < 0 || loss >= 1 {
		return 1, fmt.Errorf("-loss %v outside [0,1): %w", loss, ErrTransport)
	}
	if successProb < 0 || successProb > 1 {
		return 1, fmt.Errorf("-success-prob %v outside (0,1]: %w", successProb, ErrTransport)
	}
	if successProb != 0 {
		return successProb, nil
	}
	return 1 - loss, nil
}

// lossProb converts a success probability knob to an injected loss
// probability (0 and 1 both mean reliable).
func lossProb(successProb float64) float64 {
	if successProb <= 0 || successProb >= 1 {
		return 0
	}
	return 1 - successProb
}

// Meter accumulates data-packet attempt/delivery totals across the Conns of
// one endpoint. All methods are safe for concurrent use and tolerate a nil
// receiver, mirroring flnet.WireCounters.
type Meter struct {
	txAttempts      atomic.Int64
	txAttemptBytes  atomic.Int64
	txDelivered     atomic.Int64
	txDeliveredByte atomic.Int64
}

// addAttempt records one transmitted data packet of n bytes.
func (m *Meter) addAttempt(n int) {
	if m == nil {
		return
	}
	m.txAttempts.Add(1)
	m.txAttemptBytes.Add(int64(n))
}

// addDelivered records one acknowledged data packet of n bytes.
func (m *Meter) addDelivered(n int) {
	if m == nil {
		return
	}
	m.txDelivered.Add(1)
	m.txDeliveredByte.Add(int64(n))
}

// Totals reports packets and bytes attempted (every transmission, injected
// drops included) and delivered (unique acknowledged packets). Zero on a
// nil receiver.
func (m *Meter) Totals() (attempts, attemptBytes, delivered, deliveredBytes int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	return m.txAttempts.Load(), m.txAttemptBytes.Load(),
		m.txDelivered.Load(), m.txDeliveredByte.Load()
}
