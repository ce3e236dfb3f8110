package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/flnet"
	"eefei/internal/ml"
)

// spec is one workload: a pinned task, fleet and (K, E) run as a closed loop
// — one driver calling Round() back to back on a freshly built system until
// RoundRecord.TrainLoss ≤ Epsilon (the paper's Eq. 10 stop criterion).
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Transport is inproc (fl.Engine), tcp or dgram (flnet.Coordinator with
	// in-process edges over loopback TCP / fldgram UDP).
	Transport string `json:"transport"`
	Fleet     int    `json:"fleet"`
	Rows      int    `json:"rows_per_shard"`
	TestRows  int    `json:"test_rows"`
	K         int    `json:"k"`
	E         int    `json:"e"`
	// Decay is the per-round learning-rate decay; 0 turns it off.
	Decay   float64 `json:"decay"`
	Epsilon float64 `json:"epsilon"`
	// RefRounds is the seed-1 round count to ε; twice it is the round cap,
	// and a run that hits the cap is a failed run.
	RefRounds int `json:"ref_rounds"`
	// SuccessProb is the per-attempt delivery probability of the datagram
	// link, both directions (dgram only).
	SuccessProb float64 `json:"success_prob,omitempty"`
	// Waypoint is a looser loss at which the run also records its round
	// index and weight digest, for the cross-transport history check.
	Waypoint float64 `json:"waypoint,omitempty"`
}

const (
	learningRate = 0.1
	dataNoise    = 1.5
	// taskSeed pins the synthetic task — class prototypes and sample noise —
	// because ε is a loss on one task: another draw of prototypes is another
	// problem whose rounds-to-ε differ by a third. The run's -seed drives
	// everything the system is handed beyond the task: which rows land on
	// which shard, client selection, the edges' seeds and the link's loss
	// pattern.
	taskSeed = 1
	// dgramEpsilon is wire_dgram_loss10's target and wire_tcp's waypoint: the
	// cross-transport check compares the two histories at this loss.
	dgramEpsilon = 1.5e-2
)

// The why of each workload is the layer whose cost it isolates; sizes were
// chosen on the 2-core reference host (see README.md).
var specs = []spec{
	{
		Name: "train_inproc", Transport: "inproc",
		Why:   "Local SGD dominates the round (mat.AddMulTA/MulT, ml.SGD.Epoch, the fl worker pool); nothing touches a wire.",
		Fleet: 20, Rows: 500, TestRows: 2000, K: 10, E: 5, Decay: 0.99,
		Epsilon: 0.60, RefRounds: 32,
	},
	{
		Name: "eval_inproc", Transport: "inproc",
		Why:   "The paper's K*=1 regime: coordinator-side global-loss and test evaluation dominate, so forward-only gains show and backward-pass gains must not.",
		Fleet: 20, Rows: 500, TestRows: 2000, K: 1, E: 1, Decay: 0.998,
		Epsilon: 0.60, RefRounds: 154,
	},
	{
		Name: "wire_tcp", Transport: "tcp",
		Why:   "Tiny shards make compute small, so flnet framing, model encode/decode, the frame pool and syscalls are most of the round; fldgram is not on the path.",
		Fleet: 8, Rows: 10, TestRows: 16, K: 8, E: 1,
		Epsilon: 2e-3, RefRounds: 2168, Waypoint: dgramEpsilon,
	},
	{
		Name: "wire_dgram_loss10", Transport: "dgram",
		Why:   "The same flnet round through the lossy datagram link at p=0.9: fldgram packet codec, stop-and-wait ARQ and per-packet copies dominate, and Eq. 4's 1/p shows in bytes and joules.",
		Fleet: 8, Rows: 10, TestRows: 16, K: 8, E: 1,
		Epsilon: dgramEpsilon, RefRounds: 305, SuccessProb: 0.9,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func (sp spec) flConfig(seed uint64) fl.Config {
	return fl.Config{
		ClientsPerRound: sp.K,
		LocalEpochs:     sp.E,
		LearningRate:    learningRate,
		Decay:           sp.Decay,
		Seed:            seed,
	}
}

// taskConfig is the MNIST-shape generator setting shared by every workload:
// d=784, 10 classes → the paper's ~63 kB model.
func taskConfig(samples int) dataset.SyntheticConfig {
	cfg := dataset.DefaultSyntheticConfig()
	cfg.Side = 28
	cfg.Noise = dataNoise
	cfg.Seed = taskSeed
	cfg.Samples = samples
	return cfg
}

// episode is everything one closed-loop run to ε measured.
type episode struct {
	Setup, Synth, Partition time.Duration
	Joins                   []time.Duration // per edge, dial → roster
	RoundDur                []time.Duration // harness-timed Round() calls
	ToTarget                time.Duration
	Rounds                  int
	Reached                 bool
	LastLoss                float64
	// Bytes is downlink+uplink to ε: attempted bytes when the transport
	// reports them, else frame bytes; in-process, the payload the round
	// models (2·EncodedSize per delivering client).
	Bytes    int64
	Down, Up int64 // coordinator-side frame bytes
	// Packet bytes the datagram link attempted / delivered (dgram only).
	DownAttempt, DownDelivered int64
	UpAttempt, UpDelivered     int64
	Joules                     float64
	Final                      *ml.Model // the global model at ε
	Digest                     string    // SHA-256 of Final.AppendBinary
	WayRound                   int       // rounds when the loss first crossed spec.Waypoint
	WayDigest                  string
	Exchanges                  int // selected client exchanges, dropped ones included
	Dropped                    int
	Retries                    int
	Rejoins                    int
	Link                       linkTotals

	// Traced episodes only.
	Mallocs     uint64 // runtime.MemStats deltas across the round loop
	AllocBytes  uint64
	Stats       []fl.RoundStats
	Imbalance   float64 // mean over rounds of max÷mean of WorkerClaims
	CalibratedJ float64 // the energy.Calibrator's ledger total
}

// linkTotals are the transport-side counters of a wire episode.
type linkTotals struct {
	// EdgeTx/EdgeRx are the edges' frame bytes after the handshakes
	// (flnet.WireCounters), farewell frames included in Rx.
	EdgeTx, EdgeRx int64
	// Coord/Edge sum fldgram.Conn.Stats over each side's connections.
	Coord, Edge fldgram.Stats
}

// system is the program under test behind the three calls the loop needs.
type system struct {
	round   func() (fl.RoundRecord, error)
	global  func() *ml.Model
	observe func(fl.RoundObserver)
	// close stops the system and waits for everything it started.
	close func() (linkTotals, error)
}

func modelDigest(m *ml.Model) string {
	sum := sha256.Sum256(m.AppendBinary(nil))
	return hex.EncodeToString(sum[:])
}

// limits bound one episode: -smoke replaces ε by a fixed round count.
type limits struct {
	eps  float64
	cap  int
	need bool // the episode must reach eps under cap
}

func (sp spec) limits(smoke bool) limits {
	if smoke {
		return limits{eps: math.Inf(-1), cap: 5}
	}
	return limits{eps: sp.Epsilon, cap: 2 * sp.RefRounds, need: true}
}

// runEpisode builds the workload's system from (spec, seed), drives it to ε
// and tears it down. tr non-nil makes it the traced variant: a RoundObserver
// and an energy.Calibrator are attached and spans recorded.
func runEpisode(sp spec, seed uint64, lim limits, tr *tracer) (episode, error) {
	var ep episode
	start := time.Now()

	train, test, err := dataset.SynthesizePairParallel(taskConfig(sp.Fleet*sp.Rows), taskConfig(sp.TestRows), 0)
	if err != nil {
		return ep, err
	}
	ep.Synth = time.Since(start)
	t := time.Now()
	shards, err := dataset.EqualShards(train, sp.Fleet, seed)
	if err != nil {
		return ep, err
	}
	ep.Partition = time.Since(t)

	var sys *system
	if sp.Transport == "inproc" {
		sys, err = setupInproc(sp, seed, shards, test)
	} else {
		sys, ep.Joins, err = setupWire(sp, seed, shards, test)
	}
	if err != nil {
		return ep, err
	}
	ep.Setup = time.Since(start)
	var loopErr error
	if tr != nil {
		if loopErr = tr.beginEpisode(sp, start, ep); loopErr == nil {
			sys.observe(fl.Tee(tr, tr.cal))
		}
	}
	if loopErr == nil {
		loopErr = driveToTarget(sp, sys, lim, tr, &ep)
	}
	ep.Link, err = sys.close()
	return ep, firstErr(loopErr, err)
}

func setupInproc(sp spec, seed uint64, shards []*dataset.Dataset, test *dataset.Dataset) (*system, error) {
	eng, err := fl.NewEngine(sp.flConfig(seed), shards, fl.WithTestSet(test))
	if err != nil {
		return nil, err
	}
	return &system{
		round:   eng.Round,
		global:  eng.Global,
		observe: eng.SetRoundObserver,
		close:   func() (linkTotals, error) { return linkTotals{}, nil },
	}, nil
}

// connTap remembers the fldgram connections one side of the link opened, so
// their packet counters can be read once the run is over.
type connTap struct {
	mu    sync.Mutex
	conns []*fldgram.Conn
}

func (t *connTap) add(c net.Conn) {
	if dc, ok := c.(*fldgram.Conn); ok {
		t.mu.Lock()
		t.conns = append(t.conns, dc)
		t.mu.Unlock()
	}
}

func (t *connTap) stats() fldgram.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum fldgram.Stats
	for _, c := range t.conns {
		s := c.Stats()
		sum.TxAttempts += s.TxAttempts
		sum.TxAttemptBytes += s.TxAttemptBytes
		sum.TxDelivered += s.TxDelivered
		sum.TxDeliveredBytes += s.TxDeliveredBytes
		sum.RxDelivered += s.RxDelivered
		sum.RxDeliveredBytes += s.RxDeliveredBytes
		sum.RxDupPackets += s.RxDupPackets
		sum.RxAheadPackets += s.RxAheadPackets
		sum.RxInvalidPackets += s.RxInvalidPackets
		sum.AckPackets += s.AckPackets
	}
	return sum
}

type tapListener struct {
	net.Listener
	tap *connTap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.tap.add(c)
	}
	return c, err
}

// setupWire listens, builds the coordinator and joins the fleet. Edges live
// in this process — they are part of the system under test — and register
// one at a time, so client id i ↔ shard i and the history is a pure function
// of the seed (a racing bring-up changes the aggregation order).
func setupWire(sp spec, seed uint64, shards []*dataset.Dataset, test *dataset.Dataset) (*system, []time.Duration, error) {
	var ln net.Listener
	var coordTap, edgeTap connTap
	var err error
	if sp.Transport == "dgram" {
		var dl *fldgram.Listener
		dl, err = fldgram.Listen("127.0.0.1:0", fldgram.Config{Seed: seed, SuccessProb: sp.SuccessProb})
		ln = tapListener{dl, &coordTap}
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return nil, nil, err
	}
	coord, err := flnet.NewCoordinator(flnet.CoordinatorConfig{
		FL:       sp.flConfig(seed),
		Classes:  shards[0].Classes,
		Features: shards[0].Dim(),
	}, ln, test)
	if err != nil {
		ln.Close()
		return nil, nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var counters flnet.WireCounters
	edgeErr := make([]error, len(shards))
	stop := func() {
		coord.Shutdown()
		wg.Wait()
		cancel()
	}
	joins := make([]time.Duration, 0, len(shards))
	for i, shard := range shards {
		ecfg := flnet.EdgeConfig{
			Addr:     coord.Addr().String(),
			Shard:    shard,
			Seed:     seed + uint64(i) + 1,
			Counters: &counters,
		}
		if sp.Transport == "dgram" {
			dial, err := fldgram.Dialer(fldgram.Config{Seed: seed + uint64(i) + 1, SuccessProb: sp.SuccessProb})
			if err != nil {
				stop()
				return nil, nil, err
			}
			ecfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				c, err := dial(addr, timeout)
				if err == nil {
					edgeTap.add(c)
				}
				return c, err
			}
		}
		t := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			edgeErr[i] = flnet.RunEdgeServer(ctx, ecfg)
		}(i)
		if err := coord.AwaitRoster(ctx, i+1, 10*time.Second); err != nil {
			stop()
			return nil, nil, fmt.Errorf("edge %d: %w", i, err)
		}
		joins = append(joins, time.Since(t))
	}
	joinTx, joinRx := counters.Tx(), counters.Rx()

	return &system{
		round:   func() (fl.RoundRecord, error) { return coord.Round(ctx) },
		global:  coord.Global,
		observe: coord.SetRoundObserver,
		close: func() (linkTotals, error) {
			stop()
			for i, err := range edgeErr {
				if err != nil {
					return linkTotals{}, fmt.Errorf("edge %d: %w", i, err)
				}
			}
			return linkTotals{
				EdgeTx: counters.Tx() - joinTx,
				EdgeRx: counters.Rx() - joinRx,
				Coord:  coordTap.stats(),
				Edge:   edgeTap.stats(),
			}, nil
		},
	}, joins, nil
}

// driveToTarget is the closed loop: Round() back to back, each call timed
// from outside, until the loss reaches ε or the cap.
func driveToTarget(sp spec, sys *system, lim limits, tr *tracer, ep *episode) error {
	device, radio := energy.DefaultPiDeviceModel(), energy.DefaultWiFiRadioModel()
	computeJ := device.TrainEnergy(sp.E, sp.Rows) + device.WaitingEnergy()
	modelBytes := int64(sys.global().EncodedSize())
	ep.RoundDur = make([]time.Duration, 0, lim.cap)

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	begin := time.Now()
	for ep.Rounds < lim.cap && !ep.Reached {
		t0 := time.Now()
		rec, err := sys.round()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("round %d: %w", ep.Rounds, err)
		}
		ep.RoundDur = append(ep.RoundDur, t1.Sub(t0))
		if tr != nil {
			tr.round(t0, t1)
		}
		ep.Rounds++
		ep.LastLoss = rec.TrainLoss

		delivered := len(rec.Selected)
		ep.Exchanges += delivered + len(rec.Dropped)
		ep.Dropped += len(rec.Dropped)
		ep.Retries += rec.Retries
		ep.Rejoins += rec.Rejoins
		ep.Down += rec.DownlinkBytes
		ep.Up += rec.UplinkBytes
		ep.DownAttempt += rec.DownlinkAttemptBytes
		ep.DownDelivered += rec.DownlinkDeliveredBytes
		ep.UpAttempt += rec.UplinkAttemptBytes
		ep.UpDelivered += rec.UplinkDeliveredBytes
		down, up := rec.DownlinkBytes, rec.UplinkBytes
		if rec.DownlinkAttemptBytes > 0 {
			down = rec.DownlinkAttemptBytes
		}
		if rec.UplinkAttemptBytes > 0 {
			up = rec.UplinkAttemptBytes
		}
		radioJ := radio.DownloadEnergy(down) + radio.UploadEnergy(up)
		if sp.Transport == "inproc" {
			down, up = int64(delivered)*modelBytes, int64(delivered)*modelBytes
			radioJ = float64(delivered) * (device.DownloadEnergy() + device.UploadEnergy())
		}
		ep.Bytes += down + up
		ep.Joules += float64(delivered)*computeJ + radioJ

		if sp.Waypoint > 0 && ep.WayRound == 0 && rec.TrainLoss <= sp.Waypoint {
			ep.WayRound, ep.WayDigest = ep.Rounds, modelDigest(sys.global())
		}
		ep.Reached = rec.TrainLoss <= lim.eps
	}
	ep.ToTarget = time.Since(begin)
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		ep.Mallocs, ep.AllocBytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		tr.endEpisode(begin.Add(ep.ToTarget), ep)
	}
	ep.Final = sys.global()
	ep.Digest = modelDigest(ep.Final)
	if math.IsNaN(ep.LastLoss) || math.IsInf(ep.LastLoss, 0) {
		return fmt.Errorf("loss %v after %d rounds is not finite", ep.LastLoss, ep.Rounds)
	}
	if lim.need && !ep.Reached {
		return fmt.Errorf("loss %.6g after the cap of %d rounds, target %.6g", ep.LastLoss, lim.cap, lim.eps)
	}
	return nil
}
