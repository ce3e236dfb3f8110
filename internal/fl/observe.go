package fl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Per-round observability. The paper's contribution is an energy/time
// trade-off (Eq. 12 balances per-epoch compute B0·E against per-round upload
// B1), so the reproduction must be able to attribute wall-clock — and, when
// asked, heap traffic — to the individual phases of a coordination round.
// A RoundObserver receives one RoundStats per *completed* round; failed
// rounds leave no trace, matching the engines' atomic-commit semantics.
//
// The layer is strictly passive: observers see timings and counters only,
// never models or RNG state, so attaching one cannot perturb training.
// Same-seed runs with and without an observer are bit-identical (pinned by
// TestObserverDeterminism). With no observer attached the instrumented code
// paths collapse to calls on an off PhaseClock — no clock reads, no
// allocations — keeping BenchmarkRoundTable2 at its committed ns/op and
// allocs/op pin.

// Phase identifies one stage of a federated round. The four phases map onto
// the paper's per-round activity segments (its waiting/download/train/upload
// energy phases live in internal/energy; these are the coordinator-side
// compute stages of this reproduction).
type Phase uint8

const (
	// PhaseSelect covers client selection plus per-round scratch sizing
	// (networked: roster snapshot, selection, and request encoding).
	PhaseSelect Phase = iota
	// PhaseTrain covers local training across the worker pool (networked:
	// the request/reply exchange with every selected edge, including
	// in-round rejoin repair).
	PhaseTrain
	// PhaseAggregate covers building the update set and the aggregation
	// proper (paper Eq. 2).
	PhaseAggregate
	// PhaseEvaluate covers post-aggregation global loss and test accuracy.
	PhaseEvaluate
)

// String returns the lower-case phase name used in traces and logs.
func (p Phase) String() string {
	switch p {
	case PhaseSelect:
		return "select"
	case PhaseTrain:
		return "train"
	case PhaseAggregate:
		return "aggregate"
	case PhaseEvaluate:
		return "evaluate"
	}
	return "unknown"
}

// RoundStats is the observability record of one completed round. Durations
// serialize as integer nanoseconds (the _ns JSONL fields in DESIGN.md §7).
// Total is measured from round start to commit, so it also includes the
// commit/bookkeeping remainder: Total >= Select+Train+Aggregate+Evaluate.
type RoundStats struct {
	// Round is the zero-based round index.
	Round int `json:"round"`
	// Select, Train, Aggregate, Evaluate are the per-phase wall-clock
	// durations (see the Phase constants for exact boundaries).
	Select    time.Duration `json:"select_ns"`
	Train     time.Duration `json:"train_ns"`
	Aggregate time.Duration `json:"aggregate_ns"`
	Evaluate  time.Duration `json:"evaluate_ns"`
	// Total is the full round wall-clock, commit included.
	Total time.Duration `json:"total_ns"`
	// RoundsPerSec is 1/Total — the sustained round throughput this round
	// supports.
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Workers is the training fan-out actually used (pool size after the
	// K cap; networked: number of selected clients exchanged with).
	Workers int `json:"workers"`
	// WorkerClaims is per-pool-worker occupancy: how many training slots
	// each worker claimed this round (selection slots, summing to K). Nil
	// when the engine has no pool (networked). The slice is only valid for
	// the duration of the ObserveRound call. Claims are the one
	// scheduling-dependent field: which worker trains which slot varies
	// with goroutine timing even though the trained models never do.
	WorkerClaims []int `json:"worker_claims,omitempty"`
	// MemSampled reports whether the engine sampled runtime.ReadMemStats
	// around the round (opt-in: SetMemSampling). The deltas below are
	// process-wide, so concurrent non-round work is included.
	MemSampled bool `json:"mem_sampled,omitempty"`
	// AllocBytes is the TotalAlloc delta across the round.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Mallocs is the Mallocs (heap object) delta across the round.
	Mallocs uint64 `json:"mallocs,omitempty"`
	// Dropped / Rejoins / Retries mirror the fault-tolerance telemetry of
	// the round record (networked rounds only).
	Dropped int `json:"dropped,omitempty"`
	Rejoins int `json:"rejoins,omitempty"`
	Retries int `json:"retries,omitempty"`
	// DownlinkBytes / UplinkBytes mirror the round record's measured
	// frame-byte counts (networked rounds only): coordinator→client
	// request bytes and client→coordinator reply bytes respectively.
	DownlinkBytes int64 `json:"downlink_bytes,omitempty"`
	UplinkBytes   int64 `json:"uplink_bytes,omitempty"`
	// DgramBytes mirrors the round record's datagram transport counters
	// (fldgram runs only).
	DgramBytes
}

// PhaseDuration returns the duration recorded for phase p.
func (s RoundStats) PhaseDuration(p Phase) time.Duration {
	switch p {
	case PhaseSelect:
		return s.Select
	case PhaseTrain:
		return s.Train
	case PhaseAggregate:
		return s.Aggregate
	case PhaseEvaluate:
		return s.Evaluate
	}
	return 0
}

// RoundObserver receives per-round observability records. Implementations
// are called synchronously from the training loop after each commit, so slow
// observers lengthen the gap between rounds but never skew the per-phase
// timings (the clock stops before the call).
type RoundObserver interface {
	ObserveRound(RoundStats)
}

// FuncObserver adapts a plain function to the RoundObserver interface.
type FuncObserver func(RoundStats)

var _ RoundObserver = FuncObserver(nil)

// ObserveRound implements RoundObserver.
func (f FuncObserver) ObserveRound(s RoundStats) { f(s) }

// Tee fans each round record out to every non-nil observer in order — how a
// CLI attaches a trace writer and an energy calibrator to the same engine.
// Nil entries are skipped; with zero live observers Tee returns nil (so the
// engine keeps its no-observer fast path), and with exactly one it returns
// that observer unwrapped.
func Tee(obs ...RoundObserver) RoundObserver {
	live := make([]RoundObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeObserver(live)
}

type teeObserver []RoundObserver

// ObserveRound implements RoundObserver.
func (t teeObserver) ObserveRound(s RoundStats) {
	for _, o := range t {
		o.ObserveRound(s)
	}
}

// TraceWriter is a RoundObserver that appends one JSON line per round to w —
// the `-trace out.jsonl` sink of cmd/feisim and cmd/fedcoord (schema in
// DESIGN.md §7). It is safe for concurrent use by multiple engines; lines
// are written atomically under an internal mutex. Write errors are sticky:
// the first one stops further output and is reported by Err.
type TraceWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
	err error
}

var _ RoundObserver = (*TraceWriter)(nil)

// NewTraceWriter returns a TraceWriter emitting JSONL records to w. The
// caller keeps ownership of w (and closes it, if it is a file).
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{enc: json.NewEncoder(w)}
}

// ObserveRound implements RoundObserver.
func (t *TraceWriter) ObserveRound(s RoundStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(s); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Lines returns how many records have been written.
func (t *TraceWriter) Lines() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Err returns the first write error, if any.
func (t *TraceWriter) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// ReadTrace decodes the JSONL a TraceWriter produced: one RoundStats per
// non-blank line. Malformed records are hard errors reporting the first bad
// line's number — a trace that half-parses silently would poison any energy
// accounting replayed from it.
func ReadTrace(r io.Reader) ([]RoundStats, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var stats []RoundStats
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s RoundStats
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		stats = append(stats, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return stats, nil
}

// PhaseClock accumulates the per-phase wall-clock of one in-flight round.
// The zero value is off: Lap and Finish on it read no clock and no memstats,
// so the engines in this package and the networked coordinator in flnet call
// them unconditionally and only start the clock (NewPhaseClock) when an
// observer is attached.
type PhaseClock struct {
	on, sampleMem  bool
	start, mark    time.Time
	sel, train     time.Duration
	agg, eval      time.Duration
	mallocs0, buf0 uint64
}

// NewPhaseClock starts the round clock, optionally snapshotting memstats.
// runtime.ReadMemStats briefly stops the world, which is why allocation
// sampling is opt-in even with an observer attached.
func NewPhaseClock(sampleMem bool) PhaseClock {
	pc := PhaseClock{on: true, sampleMem: sampleMem}
	if sampleMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		pc.mallocs0, pc.buf0 = ms.Mallocs, ms.TotalAlloc
	}
	now := time.Now()
	pc.start, pc.mark = now, now
	return pc
}

// Lap closes the current phase as p and opens the next one.
func (pc *PhaseClock) Lap(p Phase) {
	if !pc.on {
		return
	}
	now := time.Now()
	d := now.Sub(pc.mark)
	pc.mark = now
	switch p {
	case PhaseSelect:
		pc.sel += d
	case PhaseTrain:
		pc.train += d
	case PhaseAggregate:
		pc.agg += d
	case PhaseEvaluate:
		pc.eval += d
	}
}

// Finish stops the clock and assembles the stats record for round.
func (pc *PhaseClock) Finish(round int) RoundStats {
	if !pc.on {
		return RoundStats{Round: round}
	}
	total := time.Since(pc.start)
	s := RoundStats{
		Round:     round,
		Select:    pc.sel,
		Train:     pc.train,
		Aggregate: pc.agg,
		Evaluate:  pc.eval,
		Total:     total,
	}
	if sec := total.Seconds(); sec > 0 {
		s.RoundsPerSec = 1 / sec
	}
	if pc.sampleMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.MemSampled = true
		s.Mallocs = ms.Mallocs - pc.mallocs0
		s.AllocBytes = ms.TotalAlloc - pc.buf0
	}
	return s
}
