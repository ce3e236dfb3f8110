package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"eefei/internal/energy"
	"eefei/internal/fl"
)

// The (K, E) sweep subsystem: a grid of federated training cells trained on
// inOrder's pool, checkpointed to JSONL after every completed cell, and
// reduced to an energy/accuracy Pareto frontier (frontier.go). Three
// contracts, all pinned by tests:
//
//   - Bit-identity: every cell trains from a seed derived only from
//     (SweepSpec.Seed, K, E), so any GOMAXPROCS — including 1 — produces
//     byte-identical checkpoints and frontiers (the same contract
//     fl.Engine.Round honors for its training pool).
//   - Grid-order checkpoints: cells are committed in grid order (K-major),
//     regardless of completion order, one Write per line, so the checkpoint
//     file is itself deterministic and any prefix of it is a valid resume
//     point.
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

// SweepOptions configures RunSweep beyond the spec.
type SweepOptions struct {
	// Checkpoint, when non-nil, receives one JSON line per cell in grid
	// order, each in one Write — resumed cells are re-emitted first, so the
	// sink always holds a complete prefix of the grid and an interrupted
	// sweep can resume from it without recomputation.
	Checkpoint io.Writer
	// Resume is a previously checkpointed prefix (ReadSweepCheckpoint);
	// those cells are trusted and skipped. It must match this spec's grid
	// exactly or RunSweep errors.
	Resume []CellResult
	// Trace, when non-nil, receives the per-round JSONL records
	// (fl.TraceWriter's) of every cell this run trains, cell after cell in
	// grid order.
	Trace io.Writer
	// Progress, when non-nil, is called in grid order as each trained cell
	// commits; done counts the committed cells, resumed ones included.
	Progress func(done int, c CellResult)
}

// RunSweep trains the spec's grid over the setup and returns every cell's
// result in grid order. Cells train on inOrder's pool and commit
// (checkpoint line, trace, progress) in grid order; on an error everything
// committed so far remains valid for resumption.
func RunSweep(setup *Setup, spec SweepSpec, opts SweepOptions) ([]CellResult, error) {
	if setup == nil {
		return nil, fmt.Errorf("sweep: nil setup: %w", ErrExperiment)
	}
	if err := spec.Validate(setup.Servers); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	if err := validateResume(cells, opts.Resume); err != nil {
		return nil, err
	}
	results := make([]CellResult, len(cells))
	copy(results, opts.Resume)
	var enc *json.Encoder
	if opts.Checkpoint != nil {
		enc = json.NewEncoder(opts.Checkpoint)
		for i := range opts.Resume {
			if err := enc.Encode(&results[i]); err != nil {
				return nil, fmt.Errorf("sweep: checkpoint resumed cell %d: %w", i, err)
			}
		}
	}
	fresh := cells[len(opts.Resume):]
	traces := make([][]byte, len(fresh))
	err := inOrder(len(fresh), func(j int) error {
		c := fresh[j]
		var trace bytes.Buffer
		var obs fl.RoundObserver
		if opts.Trace != nil {
			obs = fl.NewTraceWriter(&trace)
		}
		r, err := runSweepCell(setup, spec, c, obs)
		if err != nil {
			return fmt.Errorf("sweep cell %d (K=%d,E=%d): %w", c.Index, c.K, c.E, err)
		}
		results[c.Index], traces[j] = *r, trace.Bytes()
		return nil
	}, func(j int) error {
		i := fresh[j].Index
		if enc != nil {
			if err := enc.Encode(&results[i]); err != nil {
				return fmt.Errorf("sweep: checkpoint cell %d: %w", i, err)
			}
		}
		if opts.Trace != nil {
			if _, err := opts.Trace.Write(traces[j]); err != nil {
				return fmt.Errorf("sweep: trace cell %d: %w", i, err)
			}
			traces[j] = nil
		}
		if opts.Progress != nil {
			opts.Progress(i+1, results[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
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
