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
//     Write is Send then Flush: Send puts the frame's first window on the
//     carrier and returns without waiting for the peer, and Flush waits for
//     the ACKs and repairs losses. The caller keeps the frame unchanged
//     until Flush returns, and no other frame starts in between.
//   - A sliding-window ARQ with a fixed window of 64 packets delivers
//     fragments in order: the receiver acknowledges cumulatively, by packet
//     count (every thirty-second in-order packet and every frame end), and each
//     data packet is retransmitted until an ACK covers it, so with a
//     per-attempt delivery probability p the attempt count per fragment is
//     exactly the geometric distribution of iot.Unlicensed, and
//     attempted/delivered bytes converge to 1/p.
//   - The one injected fault is the paper's: each data-packet attempt is
//     lost with probability 1−p, drawn from a seeded stream each Conn owns.
//     An injected drop is decided at the sender before the packet touches
//     the carrier: the attempt is counted (and priced — the radio
//     transmitted), the send and the RTO wait are both skipped, and the ARQ
//     retransmits immediately. Attempt counts are therefore a pure function
//     of the seed and the byte stream, independent of timing, and tests run
//     at memory speed. Genuine carrier loss, duplication and reordering are
//     what the receiver's gap ACK and the RTO repair: the receiver holds
//     up to a window of packets past a hole, so a gap ACK costs one round
//     trip and the resend of the hole alone, and only a loss at the tail
//     waits the RTO and goes back to the ACK frontier; Stats.GoBacks counts
//     both.
//   - Both ends count attempted and delivered bytes, and every packet
//     header carries the sender's cumulative attempted bytes, so a
//     receiver knows the peer's spend without touching the payload
//     protocol. flnet snapshots these counters around each round to
//     surface attempted-vs-delivered bytes in round records and traces.
//
// Carriers: Pipe wires two Conns through in-memory channels (deterministic
// tests), and Listen/Dialer run the same Conn over a connected UDP socket
// (the cmd/fedcoord and cmd/fededge `-transport dgram` path): the Listener
// opens one per peer on its own address with SO_REUSEPORT, so each peer's
// window lands in a receive buffer of its own. A Conn hands its
// carrier flights, not datagrams: the packets a Write transmits between two
// waits go down as one run, which the UDP carrier sends with one syscall
// under Linux segmentation offload (UDP_SEGMENT) and reads back with one
// (UDP_GRO), and loops over packet by packet where the kernel has neither.
// Which packets go, in which order and which of them are dropped, is the
// same either way; only the kernel crossings per packet change.
package fldgram

import (
	"errors"
	"fmt"
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
// a reliable link at the defaults above. The one fault a Config injects is
// the paper's per-attempt data-packet loss (SuccessProb); ACKs and FINs are
// never dropped by it.
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
	// Seed drives the injected drops. Each Conn derives an independent
	// loss stream from it and its creation index.
	Seed uint64
	// SuccessProb, when in (0,1), is the per-attempt delivery probability
	// for data packets: each attempt is dropped with probability
	// 1−SuccessProb by the Conn's seeded loss stream. 0 or 1 = reliable.
	SuccessProb float64
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
	if !(cfg.SuccessProb >= 0 && cfg.SuccessProb <= 1) { // NaN fails too
		return fmt.Errorf("success probability %v outside [0,1]: %w", cfg.SuccessProb, ErrTransport)
	}
	return nil
}

// ResolveSuccessProb resolves the CLI-level -transport/-loss pair shared by
// fedcoord and fededge to the effective per-attempt delivery probability: 1
// on the stream transport (where -loss is rejected as meaningless), and
// p = 1-loss on dgram.
func ResolveSuccessProb(transport string, loss float64) (float64, error) {
	switch transport {
	case "stream":
		if loss != 0 {
			return 1, fmt.Errorf("-loss requires -transport dgram: %w", ErrTransport)
		}
		return 1, nil
	case "dgram":
	default:
		return 1, fmt.Errorf("unknown -transport %q (stream or dgram): %w", transport, ErrTransport)
	}
	if !(loss >= 0 && loss < 1) { // NaN fails too
		return 1, fmt.Errorf("-loss %v outside [0,1): %w", loss, ErrTransport)
	}
	return 1 - loss, nil
}

// lossProb converts a success probability to an injected loss probability
// (0 and 1 both mean reliable).
func lossProb(successProb float64) float64 {
	if successProb <= 0 || successProb >= 1 {
		return 0
	}
	return 1 - successProb
}
