// Package sim is the digital twin of the paper's hardware prototype: it
// couples the FedAvg engine (internal/fl) with the calibrated device energy
// model (internal/energy) and the IoT uplink model (internal/iot) under a
// virtual clock, producing the same artifacts the authors extract from their
// 20-Raspberry-Pi testbed — per-phase energy ledgers, wall-clock time, and
// 1 kHz power traces of individual edge servers (Fig. 3).
package sim

import (
	"errors"
	"fmt"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
)

// ErrSim is returned (wrapped) for invalid simulator configurations.
var ErrSim = errors.New("sim: invalid config")

// Config assembles a full FEI system.
type Config struct {
	// Servers is N, the number of edge servers.
	Servers int
	// FL carries the federated hyper-parameters (K, E, learning rate…).
	FL fl.Config
	// Device is the edge-server power/time model.
	Device energy.DeviceModel
	// Uplink is the IoT fleet configuration feeding each edge server.
	Uplink iot.UplinkConfig
	// Preloaded mirrors the prototype: datasets sit on the servers already
	// and the per-round data-collection energy is zero. When false, every
	// round each selected server first collects its n_k samples from its
	// IoT fleet, paying ρ·n_k (Eq. 4).
	Preloaded bool
	// Seed drives the IoT collection randomness.
	Seed uint64
	// Observer, when non-nil, is attached to the FL engine as its
	// per-round observability sink (phase timings, worker claims). It is
	// strictly passive: same-seed runs with and without one are
	// bit-identical.
	Observer fl.RoundObserver
}

// DefaultConfig mirrors the paper's prototype: 20 servers, Pi-4B device
// model, NB-IoT uplink, preloaded data.
func DefaultConfig() Config {
	return Config{
		Servers:   20,
		FL:        fl.DefaultConfig(),
		Device:    energy.DefaultPiDeviceModel(),
		Uplink:    iot.DefaultNBIoTConfig(),
		Preloaded: true,
		Seed:      1,
	}
}

// RoundEnergy is the energy/time record of one global round.
type RoundEnergy struct {
	// Round is the zero-based round index.
	Round int
	// Joules is the total energy all selected servers spent this round,
	// including IoT collection when data is not preloaded.
	Joules float64
	// CollectionJoules is the IoT data-collection part of Joules.
	CollectionJoules float64
	// Duration is the wall-clock length of the round (servers run in
	// lockstep, so it equals the per-server round duration).
	Duration time.Duration
}

// Result is a completed simulated training run.
type Result struct {
	// History holds the FL round records (loss, accuracy, selection).
	History []fl.RoundRecord
	// Rounds holds the per-round energy records, parallel to History.
	Rounds []RoundEnergy
	// Ledger aggregates energy by phase across the whole run. IoT
	// collection energy is tracked separately in CollectionJoules.
	Ledger *energy.Ledger
	// CollectionJoules is the total IoT data-collection energy.
	CollectionJoules float64
	// WallClock is the total virtual time elapsed.
	WallClock time.Duration
	// FinalAccuracy is the last round's test accuracy (NaN without a test
	// set).
	FinalAccuracy float64
	// FinalLoss is the last round's global training loss.
	FinalLoss float64
}

// TotalJoules returns ledger energy plus IoT collection energy.
func (r *Result) TotalJoules() float64 {
	return r.Ledger.Total() + r.CollectionJoules
}

// System is a runnable FEI simulation.
type System struct {
	cfg     Config
	engine  *fl.Engine
	fleets  []*iot.Fleet
	samples []int // per-server shard sizes
}

// New builds a system over pre-partitioned shards (one per edge server) and
// an optional test set.
func New(cfg Config, shards []*dataset.Dataset, test *dataset.Dataset) (*System, error) {
	if cfg.Servers != len(shards) {
		return nil, fmt.Errorf("%d servers for %d shards: %w", cfg.Servers, len(shards), ErrSim)
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, fmt.Errorf("device model: %w", err)
	}
	if err := cfg.Uplink.Validate(); err != nil {
		return nil, fmt.Errorf("uplink: %w", err)
	}
	var opts []fl.Option
	if test != nil {
		opts = append(opts, fl.WithTestSet(test))
	}
	engine, err := fl.NewEngine(cfg.FL, shards, opts...)
	if err != nil {
		return nil, fmt.Errorf("fl engine: %w", err)
	}
	engine.SetRoundObserver(cfg.Observer)
	fleets := make([]*iot.Fleet, len(shards))
	samples := make([]int, len(shards))
	for i, s := range shards {
		fleet, err := iot.NewFleet(cfg.Uplink, 1+s.Len()/10, cfg.Seed+uint64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("fleet %d: %w", i, err)
		}
		fleets[i] = fleet
		samples[i] = s.Len()
	}
	return &System{cfg: cfg, engine: engine, fleets: fleets, samples: samples}, nil
}

// Engine exposes the underlying FL engine (read-only use intended).
func (s *System) Engine() *fl.Engine { return s.engine }

// Run executes federated rounds until stop fires, accounting energy along
// the way.
func (s *System) Run(stop fl.StopCondition) (*Result, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrSim)
	}
	res := &Result{Ledger: energy.NewLedger()}
	for !stop(s.engine.History()) {
		rec, err := s.engine.Round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(res.History), err)
		}
		re, err := s.accountRound(rec, res.Ledger)
		if err != nil {
			return nil, err
		}
		res.History = append(res.History, rec)
		res.Rounds = append(res.Rounds, re)
		res.CollectionJoules += re.CollectionJoules
		res.WallClock += re.Duration
	}
	if n := len(res.History); n > 0 {
		res.FinalAccuracy = res.History[n-1].TestAccuracy
		res.FinalLoss = res.History[n-1].TrainLoss
	}
	return res, nil
}

// accountRound posts one FL round's energy to the ledger and returns the
// round record.
func (s *System) accountRound(rec fl.RoundRecord, ledger *energy.Ledger) (RoundEnergy, error) {
	dm := s.cfg.Device
	e := s.cfg.FL.LocalEpochs
	re := RoundEnergy{Round: rec.Round}
	var maxDur time.Duration
	for _, server := range rec.Selected {
		n := s.samples[server]
		if !s.cfg.Preloaded {
			j, err := s.fleets[server].Collect(n)
			if err != nil {
				return RoundEnergy{}, fmt.Errorf("server %d collect: %w", server, err)
			}
			re.CollectionJoules += j
		}
		ledger.Add(energy.PhaseWaiting, dm.WaitingEnergy())
		ledger.Add(energy.PhaseDownload, dm.DownloadEnergy())
		ledger.Add(energy.PhaseTrain, dm.TrainEnergy(e, n))
		ledger.Add(energy.PhaseUpload, dm.UploadEnergy())
		re.Joules += dm.RoundEnergy(e, n)
		if d := dm.Time.RoundDuration(e, n); d > maxDur {
			maxDur = d
		}
	}
	re.Joules += re.CollectionJoules
	re.Duration = maxDur
	ledger.AddRound()
	return re, nil
}

// TraceServer reconstructs the 1 kHz power trace one edge server would have
// produced over the given rounds of a completed run (Fig. 3): four-phase
// activity in rounds where it was selected, idle waiting otherwise.
// history must come from this system's run; rounds selects how many leading
// rounds to render.
func (s *System) TraceServer(history []fl.RoundRecord, server, rounds int, meterSeed uint64) (*energy.Trace, error) {
	if server < 0 || server >= s.cfg.Servers {
		return nil, fmt.Errorf("server %d of %d: %w", server, s.cfg.Servers, ErrSim)
	}
	if rounds > len(history) {
		rounds = len(history)
	}
	if rounds <= 0 {
		return nil, fmt.Errorf("no rounds to trace: %w", ErrSim)
	}
	tm := s.cfg.Device.Time
	e := s.cfg.FL.LocalEpochs
	n := s.samples[server]
	roundDur := tm.RoundDuration(e, n)

	var schedule []energy.Interval
	var cursor time.Duration
	for r := 0; r < rounds; r++ {
		if containsInt(history[r].Selected, server) {
			for _, p := range energy.Phases {
				d := tm.PhaseDuration(p, e, n)
				schedule = append(schedule, energy.Interval{Phase: p, Start: cursor, End: cursor + d})
				cursor += d
			}
		} else {
			schedule = append(schedule, energy.Interval{
				Phase: energy.PhaseWaiting, Start: cursor, End: cursor + roundDur,
			})
			cursor += roundDur
		}
	}
	meter, err := energy.NewMeter(s.cfg.Device.Power, 1000, meterSeed)
	if err != nil {
		return nil, fmt.Errorf("meter: %w", err)
	}
	trace, err := meter.Record(schedule)
	if err != nil {
		return nil, fmt.Errorf("trace server %d: %w", server, err)
	}
	return trace, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// AnalyticRoundJoules returns the deterministic per-round energy of one
// selected server under this config — the quantity Eq. (12)'s B0·E + B1
// approximates (plus the waiting/download overheads the paper folds into
// its baseline).
func (s *System) AnalyticRoundJoules() float64 {
	n := 0
	if len(s.samples) > 0 {
		n = s.samples[0]
	}
	j := s.cfg.Device.RoundEnergy(s.cfg.FL.LocalEpochs, n)
	if !s.cfg.Preloaded {
		j += s.cfg.Uplink.CollectionEnergy(n)
	}
	return j
}
