package experiments

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/par"
)

// The (K, E) sweep subsystem: a grid of federated training cells executed on
// a bounded worker pool, checkpointed to JSONL after every completed cell,
// and reduced to an energy/accuracy Pareto frontier (frontier.go). Three
// contracts, all pinned by tests:
//
//   - Bit-identity: every cell trains from a seed derived only from
//     (SweepSpec.Seed, K, E), so any worker count — including 1 — produces
//     byte-identical checkpoints and frontiers (the same contract
//     fl.Engine.Round honors for its training pool).
//   - Grid-order checkpoints: cells are flushed in grid order (K-major),
//     regardless of completion order, so the checkpoint file is itself
//     deterministic and any prefix of it is a valid resume point.
//   - Resume: a sweep restarted from a checkpoint prefix recomputes only the
//     missing cells and reproduces the uninterrupted artifacts
//     byte-for-byte.

// Axis and grid bounds — parse-time guards so a malformed grid string can
// never allocate an unbounded cell list.
const (
	// maxSweepAxis bounds the number of values on one grid axis.
	maxSweepAxis = 4096
	// maxSweepEpochs bounds E (local epochs per round).
	maxSweepEpochs = 10000
)

// SweepSpec describes a (K, E) sweep grid. Build one with ParseSweepGrid or
// by hand; RunSweep validates it against the setup's server count.
type SweepSpec struct {
	// Ks, Es are the grid axes; cells run K-major (for each K, every E).
	Ks []int `json:"ks"`
	Es []int `json:"es"`
	// Seed is the base seed every per-cell seed derives from.
	Seed uint64 `json:"seed"`
	// RoundCap overrides the setup's per-run round cap when > 0.
	RoundCap int `json:"round_cap,omitempty"`
}

// Validate checks the grid against a server count. Errors wrap
// ErrExperiment and always report the first offending value in grid order,
// so rejection is deterministic.
func (s *SweepSpec) Validate(servers int) error {
	if servers < 1 {
		return fmt.Errorf("sweep: %d servers: %w", servers, ErrExperiment)
	}
	if len(s.Ks) == 0 || len(s.Es) == 0 {
		return fmt.Errorf("sweep: grid needs at least one K and one E value: %w", ErrExperiment)
	}
	if len(s.Ks) > maxSweepAxis || len(s.Es) > maxSweepAxis {
		return fmt.Errorf("sweep: axis of %d/%d values exceeds %d: %w",
			len(s.Ks), len(s.Es), maxSweepAxis, ErrExperiment)
	}
	seenK := make(map[int]bool, len(s.Ks))
	for _, k := range s.Ks {
		if k < 1 || k > servers {
			return fmt.Errorf("sweep: K=%d out of range [1,%d]: %w", k, servers, ErrExperiment)
		}
		if seenK[k] {
			return fmt.Errorf("sweep: duplicate K=%d: %w", k, ErrExperiment)
		}
		seenK[k] = true
	}
	seenE := make(map[int]bool, len(s.Es))
	for _, e := range s.Es {
		if e < 1 || e > maxSweepEpochs {
			return fmt.Errorf("sweep: E=%d out of range [1,%d]: %w", e, maxSweepEpochs, ErrExperiment)
		}
		if seenE[e] {
			return fmt.Errorf("sweep: duplicate E=%d: %w", e, ErrExperiment)
		}
		seenE[e] = true
	}
	if s.RoundCap < 0 {
		return fmt.Errorf("sweep: round cap %d: %w", s.RoundCap, ErrExperiment)
	}
	return nil
}

// ParseSweepGrid parses the CLI grid syntax:
//
//	K=1,5,10,50,100;E=1,5,20
//
// Both axes are required, in either order. Elements are positive integers
// or inclusive ranges a..b (K=1..100 is the full paper grid). Duplicate
// values, duplicate axes, and unknown axes are rejected; all errors wrap
// ErrExperiment. Seed and overrides are left at zero for the caller.
func ParseSweepGrid(grid string) (SweepSpec, error) {
	var spec SweepSpec
	for _, part := range strings.Split(grid, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			return SweepSpec{}, fmt.Errorf("sweep grid %q: empty section: %w", grid, ErrExperiment)
		}
		axis, list, ok := strings.Cut(part, "=")
		if !ok {
			return SweepSpec{}, fmt.Errorf("sweep grid section %q: want axis=v1,v2,…: %w", part, ErrExperiment)
		}
		vals, err := parseSweepAxis(list)
		if err != nil {
			return SweepSpec{}, fmt.Errorf("sweep grid section %q: %w", part, err)
		}
		switch strings.TrimSpace(axis) {
		case "K":
			if spec.Ks != nil {
				return SweepSpec{}, fmt.Errorf("sweep grid %q: duplicate K axis: %w", grid, ErrExperiment)
			}
			spec.Ks = vals
		case "E":
			if spec.Es != nil {
				return SweepSpec{}, fmt.Errorf("sweep grid %q: duplicate E axis: %w", grid, ErrExperiment)
			}
			spec.Es = vals
		default:
			return SweepSpec{}, fmt.Errorf("sweep grid section %q: unknown axis (want K or E): %w", part, ErrExperiment)
		}
	}
	if spec.Ks == nil || spec.Es == nil {
		return SweepSpec{}, fmt.Errorf("sweep grid %q: need both a K= and an E= axis: %w", grid, ErrExperiment)
	}
	for _, axis := range []struct {
		name string
		vals []int
	}{{"K", spec.Ks}, {"E", spec.Es}} {
		seen := make(map[int]bool, len(axis.vals))
		for _, v := range axis.vals {
			if seen[v] {
				return SweepSpec{}, fmt.Errorf("sweep grid %q: duplicate %s=%d: %w", grid, axis.name, v, ErrExperiment)
			}
			seen[v] = true
		}
	}
	return spec, nil
}

// parseSweepAxis expands one comma-separated value list ("1,5,10" or
// "1..100" or a mix).
func parseSweepAxis(list string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		lo, hi := tok, tok
		if a, b, ok := strings.Cut(tok, ".."); ok {
			lo, hi = strings.TrimSpace(a), strings.TrimSpace(b)
		}
		first, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("value %q: %v: %w", tok, err, ErrExperiment)
		}
		last, err := strconv.Atoi(hi)
		if err != nil {
			return nil, fmt.Errorf("value %q: %v: %w", tok, err, ErrExperiment)
		}
		if first < 1 || last < 1 {
			return nil, fmt.Errorf("value %q: sweep values must be >= 1: %w", tok, ErrExperiment)
		}
		if last < first {
			return nil, fmt.Errorf("range %q: descending: %w", tok, ErrExperiment)
		}
		if last-first+1 > maxSweepAxis || len(out)+(last-first+1) > maxSweepAxis {
			return nil, fmt.Errorf("axis exceeds %d values: %w", maxSweepAxis, ErrExperiment)
		}
		for v := first; v <= last; v++ {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty axis: %w", ErrExperiment)
	}
	return out, nil
}

// SweepCell identifies one grid cell and its derived seed.
type SweepCell struct {
	Index int
	K, E  int
	Seed  uint64
}

// Cells expands the grid in its canonical K-major order.
func (s SweepSpec) Cells() []SweepCell {
	out := make([]SweepCell, 0, len(s.Ks)*len(s.Es))
	for _, k := range s.Ks {
		for _, e := range s.Es {
			out = append(out, SweepCell{Index: len(out), K: k, E: e, Seed: cellSeed(s.Seed, k, e)})
		}
	}
	return out
}

// cellSeed derives the per-cell training seed from (base, K, E) alone —
// never from scheduling — via a SplitMix64 finalizer, so parallel execution
// is bit-identical to sequential.
func cellSeed(base uint64, k, e int) uint64 {
	z := base ^ uint64(k)<<32 ^ uint64(uint32(e))
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CellResult is the recorded outcome of one sweep cell — one JSONL
// checkpoint line. All fields are deterministic functions of the cell seed
// and the setup (wall-clock here is the simulator's virtual time).
type CellResult struct {
	// Index is the cell's position in the canonical grid order.
	Index int `json:"index"`
	// K, E are the cell's hyper-parameters; Seed is its derived seed.
	K    int    `json:"k"`
	E    int    `json:"e"`
	Seed uint64 `json:"seed"`
	// Rounds is how many rounds ran; RoundsToTarget is the first round
	// reaching the accuracy target (-1 when the cap hit first).
	Rounds         int `json:"rounds"`
	RoundsToTarget int `json:"rounds_to_target"`
	// FinalAccuracy / FinalLoss are the last round's metrics.
	FinalAccuracy float64 `json:"final_accuracy"`
	FinalLoss     float64 `json:"final_loss"`
	// TotalJoules is the run's full energy-ledger total (plus IoT
	// collection); PhaseJoules breaks it down by ledger phase, keyed by the
	// canonical phase names energy.Calibrator uses.
	TotalJoules      float64            `json:"total_joules"`
	PhaseJoules      map[string]float64 `json:"phase_joules"`
	CollectionJoules float64            `json:"collection_joules,omitempty"`
	// WallClockSeconds is the simulated (virtual) training time.
	WallClockSeconds float64 `json:"wall_clock_seconds"`
}

// SweepProgress is one progress report: cell Done-1 just committed.
type SweepProgress struct {
	// Done / Total count committed vs. grid cells (resumed cells included).
	Done, Total int
	// Cell is the result that just committed (grid order).
	Cell CellResult
	// Elapsed is real time since RunSweep started; ETA extrapolates it over
	// the remaining cells (resumed cells excluded from the rate).
	Elapsed, ETA time.Duration
}

// SweepObserver watches a sweep complete cell by cell — the hook that makes
// multi-hour full-scale runs watchable. Observers are called in grid order
// under the sweep's commit lock: a slow observer delays checkpointing but
// never the training workers' determinism.
type SweepObserver interface {
	ObserveCell(SweepProgress)
}

// SweepObserverFunc adapts a function to SweepObserver.
type SweepObserverFunc func(SweepProgress)

// ObserveCell implements SweepObserver.
func (f SweepObserverFunc) ObserveCell(p SweepProgress) { f(p) }

// SweepOptions configures RunSweep beyond the spec.
type SweepOptions struct {
	// Workers bounds the cell pool (<= 0: GOMAXPROCS). Any value produces
	// byte-identical artifacts.
	Workers int
	// Checkpoint, when non-nil, receives one JSON line per cell in grid
	// order — resumed cells are re-emitted first, so the sink always holds
	// a complete prefix of the grid and an interrupted sweep can resume
	// from it without recomputation.
	Checkpoint io.Writer
	// Resume is a previously checkpointed prefix (ReadSweepCheckpoint);
	// those cells are trusted and skipped. It must match this spec's grid
	// exactly or RunSweep errors.
	Resume []CellResult
	// Observer receives per-cell progress.
	Observer SweepObserver
	// RoundObserver is attached to every cell's engine (per-round phase
	// timings; a fl.TraceWriter makes the sweep traceable). With Workers >
	// 1 cells run concurrently, so it must be safe for concurrent use.
	RoundObserver fl.RoundObserver
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Spec SweepSpec
	// Cells holds every cell result in grid order.
	Cells []CellResult
}

// RunSweep executes the spec's grid over the setup. Cells run on a bounded
// worker pool; results commit (checkpoint + observer) strictly in grid
// order. Cancelling ctx stops the sweep at the next cell boundary with an
// error wrapping ctx.Err(); everything committed by then remains valid for
// resumption.
func RunSweep(ctx context.Context, setup *Setup, spec SweepSpec, opts SweepOptions) (*SweepResult, error) {
	if setup == nil {
		return nil, fmt.Errorf("sweep: nil setup: %w", ErrExperiment)
	}
	if err := spec.Validate(setup.Servers); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cells := spec.Cells()
	if err := validateResume(cells, opts.Resume); err != nil {
		return nil, err
	}
	total := len(cells)
	results := make([]*CellResult, total)
	var enc *json.Encoder
	if opts.Checkpoint != nil {
		enc = json.NewEncoder(opts.Checkpoint)
	}
	resumed := len(opts.Resume)
	for i := range opts.Resume {
		r := opts.Resume[i]
		results[i] = &r
		if enc != nil {
			if err := enc.Encode(&r); err != nil {
				return nil, fmt.Errorf("sweep: checkpoint resumed cell %d: %w", i, err)
			}
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var (
		mu          sync.Mutex
		next        = resumed // next grid index to flush
		firstErr    error
		firstErrIdx = total + 1
	)
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < firstErrIdx {
			firstErrIdx, firstErr = i, err
		}
		cancel()
	}
	commit := func(i int, r *CellResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = r
		for next < total && results[next] != nil {
			if enc != nil {
				if err := enc.Encode(results[next]); err != nil {
					if next < firstErrIdx {
						firstErrIdx = next
						firstErr = fmt.Errorf("sweep: checkpoint cell %d: %w", next, err)
					}
					cancel()
					return
				}
			}
			cell := *results[next]
			next++
			if opts.Observer != nil {
				p := SweepProgress{Done: next, Total: total, Cell: cell, Elapsed: time.Since(start)}
				if fresh := next - resumed; fresh > 0 && next < total {
					p.ETA = p.Elapsed / time.Duration(fresh) * time.Duration(total-next)
				}
				opts.Observer.ObserveCell(p)
			}
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Cells past a failure or cancellation are claimed but skipped.
	par.Do(total-resumed, workers, par.Func(func(_, j int) {
		if runCtx.Err() != nil {
			return
		}
		i := resumed + j
		r, err := runSweepCell(setup, spec, cells[i], opts.RoundObserver)
		if err != nil {
			fail(i, fmt.Errorf("sweep cell %d (K=%d,E=%d): %w", i, cells[i].K, cells[i].E, err))
			return
		}
		commit(i, r)
	}))
	if firstErr != nil {
		return nil, firstErr
	}
	if next < total {
		return nil, fmt.Errorf("sweep interrupted after %d/%d cells: %w", next, total, ctx.Err())
	}
	out := make([]CellResult, total)
	for i, r := range results {
		out[i] = *r
	}
	return &SweepResult{Spec: spec, Cells: out}, nil
}

// runSweepCell trains one cell and reduces the run to its checkpoint record.
func runSweepCell(setup *Setup, spec SweepSpec, c SweepCell, obs fl.RoundObserver) (*CellResult, error) {
	res, err := setup.RunTraining(c.K, c.E, c.Seed, spec.RoundCap, obs)
	if err != nil {
		return nil, err
	}
	phases := make(map[string]float64, len(energy.Phases))
	for _, p := range energy.Phases {
		phases[p.String()] = res.Ledger.Phase(p)
	}
	return &CellResult{
		Index:            c.Index,
		K:                c.K,
		E:                c.E,
		Seed:             c.Seed,
		Rounds:           len(res.History),
		RoundsToTarget:   RoundsToAccuracy(res.History, setup.AccuracyTarget),
		FinalAccuracy:    res.FinalAccuracy,
		FinalLoss:        res.FinalLoss,
		TotalJoules:      res.TotalJoules(),
		PhaseJoules:      phases,
		CollectionJoules: res.CollectionJoules,
		WallClockSeconds: res.WallClock.Seconds(),
	}, nil
}

// validateResume checks a checkpointed prefix against the grid: cell i of
// the checkpoint must be grid cell i with the same (K, E, seed) — resuming
// under a different spec or base seed is an error, not silent corruption.
func validateResume(cells []SweepCell, resume []CellResult) error {
	if len(resume) > len(cells) {
		return fmt.Errorf("sweep: checkpoint has %d cells, grid only %d: %w",
			len(resume), len(cells), ErrExperiment)
	}
	for i, r := range resume {
		c := cells[i]
		if r.Index != i || r.K != c.K || r.E != c.E || r.Seed != c.Seed {
			return fmt.Errorf("sweep: checkpoint cell %d is (index=%d,K=%d,E=%d,seed=%d), grid expects (index=%d,K=%d,E=%d,seed=%d): %w",
				i, r.Index, r.K, r.E, r.Seed, c.Index, c.K, c.E, c.Seed, ErrExperiment)
		}
	}
	return nil
}

// ReadSweepCheckpoint decodes a checkpoint JSONL stream: one CellResult per
// non-blank line. Malformed records are hard errors reporting the first bad
// line — a half-parsed checkpoint would silently recompute (or worse, skip)
// cells on resume.
func ReadSweepCheckpoint(r io.Reader) ([]CellResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var cells []CellResult
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var c CellResult
		if err := json.Unmarshal([]byte(text), &c); err != nil {
			return nil, fmt.Errorf("sweep checkpoint line %d: %v: %w", line, err, ErrExperiment)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cells, nil
}
