// Package fl implements the in-process federated-learning substrate the
// paper's FEI system runs: FedAvg coordination (Section III-A) across edge
// servers holding disjoint shards, with configurable client selection, local
// epoch counts E, per-round learning-rate decay, parallel local training,
// and stop conditions on rounds / loss / accuracy. The networked counterpart
// lives in package flnet; both share this package's aggregation logic.
package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"eefei/internal/dataset"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// ErrConfig is returned (wrapped) for invalid engine configurations.
var ErrConfig = errors.New("fl: invalid config")

// Config are the federated hyper-parameters of one training run.
type Config struct {
	// ClientsPerRound is K, the number of edge servers selected each round.
	ClientsPerRound int
	// LocalEpochs is E, the local SGD epochs per selected server per round.
	LocalEpochs int
	// LearningRate is γ at round 0.
	LearningRate float64
	// Decay multiplies the learning rate once per global round (paper:
	// 0.99). Zero disables decay.
	Decay float64
	// BatchSize is the local mini-batch size; 0 selects full batch (the
	// paper's setting).
	BatchSize int
	// Activation selects the classifier head.
	Activation ml.Activation
	// ProximalMu enables FedProx local training with strength µ (0 = plain
	// FedAvg, the paper's algorithm).
	ProximalMu float64
	// Seed drives client selection and any mini-batch shuffling.
	Seed uint64
}

// DefaultConfig mirrors the paper's Table II with K=10, E=40.
func DefaultConfig() Config {
	return Config{
		ClientsPerRound: 10,
		LocalEpochs:     40,
		LearningRate:    0.01,
		Decay:           0.99,
		Activation:      ml.Softmax,
		Seed:            1,
	}
}

// Validate checks the configuration against the number of available shards.
func (c Config) Validate(shards int) error {
	if c.ClientsPerRound < 1 || c.ClientsPerRound > shards {
		return fmt.Errorf("K=%d with %d shards: %w", c.ClientsPerRound, shards, ErrConfig)
	}
	if c.LocalEpochs < 1 {
		return fmt.Errorf("E=%d: %w", c.LocalEpochs, ErrConfig)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("learning rate %v: %w", c.LearningRate, ErrConfig)
	}
	if c.Decay < 0 || c.Decay > 1 {
		return fmt.Errorf("decay %v: %w", c.Decay, ErrConfig)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("batch size %d: %w", c.BatchSize, ErrConfig)
	}
	if c.ProximalMu < 0 {
		return fmt.Errorf("proximal mu %v: %w", c.ProximalMu, ErrConfig)
	}
	return nil
}

// Selector chooses which clients participate in a round.
type Selector interface {
	// Select returns K distinct client indices out of n for round t.
	Select(rng *mat.RNG, n, k, round int) []int
}

// RandomSelector draws K clients uniformly without replacement each round —
// the paper's "randomly selected subset K_t ⊆ K".
type RandomSelector struct{}

var _ Selector = RandomSelector{}

// Select implements Selector.
func (RandomSelector) Select(rng *mat.RNG, n, k, _ int) []int {
	return rng.Sample(n, k)
}

// RoundRobinSelector cycles deterministically through clients, useful for
// reproducing traces where participation order matters.
type RoundRobinSelector struct{}

var _ Selector = RoundRobinSelector{}

// Select implements Selector.
func (RoundRobinSelector) Select(_ *mat.RNG, n, k, round int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = (round*k + i) % n
	}
	return out
}

// RoundRecord captures one global coordination round.
type RoundRecord struct {
	// Round is the zero-based round index t.
	Round int
	// Selected are the participating client indices K_t.
	Selected []int
	// TrainLoss is the global loss F(ω_{t+1}) over the union of all shards,
	// measured after aggregation.
	TrainLoss float64
	// TestAccuracy is the post-aggregation accuracy on the test set, or NaN
	// when no test set is attached.
	TestAccuracy float64
	// LearningRate is the γ used for this round's local training.
	LearningRate float64
	// LocalLosses holds each selected client's final local training loss,
	// parallel to Selected.
	LocalLosses []float64
	// Dropped lists clients that were selected this round but failed to
	// deliver an update before the round closed (networked runs with fault
	// tolerance only; nil for in-process training). Their local-training
	// and partial-upload energy is wasted work that experiments can charge
	// against the round.
	Dropped []int
	// Rejoins counts client re-registrations the coordinator accepted
	// since the previous completed round (networked runs only). It is
	// wall-clock telemetry: a reconnect racing a round boundary may be
	// attributed to either neighbouring round.
	Rejoins int
	// Retries counts in-round delivery repairs: a selected client whose
	// connection failed mid-round re-registered within the coordinator's
	// rejoin grace window and this round's request was re-sent on the
	// fresh connection (networked runs with RejoinGrace only). Like
	// Rejoins it is wall-clock telemetry — whether a failure is repaired
	// on the first or a later attempt depends on reconnect latency.
	Retries int
	// DownlinkBytes / UplinkBytes are the frame bytes the coordinator
	// actually put on / took off the wire this round (networked runs only;
	// zero for in-process training): request frames to the selected
	// clients and their reply frames respectively, 5-byte frame headers
	// included. They are the measured transfer volume the bytes→joules
	// radio energy model prices, replacing the analytic estimate.
	DownlinkBytes int64
	UplinkBytes   int64
	// The *AttemptBytes / *DeliveredBytes pairs are only set when the round
	// ran over a datagram transport with per-attempt accounting
	// (fldgram): attempted counts every packet transmission including
	// retransmissions and injected drops — the energy the radio actually
	// spent — while delivered counts unique acknowledged packets, both at
	// wire size (datagram headers included). Their ratio is the measured
	// expected attempts per delivery, which Eq. 4 predicts converges to
	// 1/p on the unlicensed band. Zero on stream transports.
	DownlinkAttemptBytes   int64
	DownlinkDeliveredBytes int64
	UplinkAttemptBytes     int64
	UplinkDeliveredBytes   int64
}

// Engine runs FedAvg over in-memory shards.
//
// The per-round hot path is allocation-free after the first round: local
// training runs on a bounded worker pool whose per-slot scratch models and
// per-worker optimizers (each owning its gradient accumulator, batched-
// forward chunk scratch, shuffle buffer, and RNG stream) are reused round
// over round, the
// aggregate lands in a scratch model that is committed only when the whole
// round — including evaluation — succeeds, and global loss / test accuracy
// are computed by a shard-parallel map-reduce over per-worker evaluators.
// See DESIGN.md §7 for the scratch-ownership rules.
type Engine struct {
	cfg          Config
	shards       []*dataset.Dataset
	totalSamples int
	global       *ml.Model
	test         *dataset.Dataset
	selector     Selector
	agg          Aggregator
	roundObs     RoundObserver
	sampleMem    bool
	rng          *mat.RNG
	parallel     int
	evalParallel int
	round        int
	history      []RoundRecord

	// Round-loop scratch, all reused across rounds. localModels is indexed
	// by selection slot (each slot's result must survive until aggregation),
	// sgds by pool worker (a worker trains its claimed slots sequentially).
	localModels []*ml.Model
	sgds        []*ml.SGD
	results     []localResult
	updates     []Update
	aggScratch  *ml.Model
	// Evaluation scratch: the shard-parallel loss map-reduce (shared with
	// AsyncEngine) and a chunk-parallel evaluator for the test set.
	shardLoss shardLossMap
	testEval  *ml.Evaluator
}

// Option customizes an Engine.
type Option func(*Engine)

// WithTestSet attaches a held-out evaluation set; rounds then report
// TestAccuracy.
func WithTestSet(test *dataset.Dataset) Option {
	return func(e *Engine) { e.test = test }
}

// WithSelector replaces the default RandomSelector.
func WithSelector(s Selector) Option {
	return func(e *Engine) { e.selector = s }
}

// WithAggregator replaces the default MeanAggregator (paper Eq. 2).
func WithAggregator(a Aggregator) Option {
	return func(e *Engine) { e.agg = a }
}

// WithRoundObserver attaches a per-round observability sink (phase timings,
// throughput, pool occupancy — see RoundStats). Nil detaches; with no
// observer the round loop takes no timestamps at all.
func WithRoundObserver(o RoundObserver) Option {
	return func(e *Engine) { e.roundObs = o }
}

// WithMemSampling opts the engine into sampling runtime.ReadMemStats around
// every observed round, filling RoundStats.Mallocs/AllocBytes. It has no
// effect without a RoundObserver.
func WithMemSampling() Option {
	return func(e *Engine) { e.sampleMem = true }
}

// WithParallelism caps concurrent local-training workers; 1 forces
// sequential execution, 0 selects GOMAXPROCS. Results are bit-identical for
// every setting: a client's training stream is derived from (seed, client,
// round), never from which worker ran it.
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallel = n }
}

// WithEvalParallelism caps the workers used for post-aggregation evaluation
// (global loss over the shards, accuracy over the test set); 1 forces
// sequential evaluation, 0 selects GOMAXPROCS. Results are bit-identical
// for every setting: per-shard losses are reduced in shard order and the
// test pass uses a fixed chunk decomposition.
func WithEvalParallelism(n int) Option {
	return func(e *Engine) { e.evalParallel = n }
}

// NewEngine validates the config and builds an engine over the given shards.
// All shards must agree on dimensionality and class count.
func NewEngine(cfg Config, shards []*dataset.Dataset, opts ...Option) (*Engine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("no shards: %w", ErrConfig)
	}
	if err := cfg.Validate(len(shards)); err != nil {
		return nil, err
	}
	dim, classes := shards[0].Dim(), shards[0].Classes
	for i, s := range shards {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.Dim() != dim || s.Classes != classes {
			return nil, fmt.Errorf("shard %d shape %d/%d differs from shard 0 %d/%d: %w",
				i, s.Dim(), s.Classes, dim, classes, ErrConfig)
		}
	}
	act := cfg.Activation
	if act == 0 {
		act = ml.Softmax
	}
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	e := &Engine{
		cfg:          cfg,
		shards:       shards,
		totalSamples: total,
		global:       ml.NewModel(classes, dim, act),
		selector:     RandomSelector{},
		agg:          MeanAggregator{},
		rng:          mat.NewRNG(cfg.Seed),
		parallel:     runtime.GOMAXPROCS(0),
		evalParallel: runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.parallel <= 0 {
		e.parallel = runtime.GOMAXPROCS(0)
	}
	if e.evalParallel <= 0 {
		e.evalParallel = runtime.GOMAXPROCS(0)
	}
	e.aggScratch = ml.NewModel(classes, dim, act)
	e.shardLoss.init(len(shards))
	return e, nil
}

// Global returns the current global model (live reference; callers must not
// mutate it mid-run).
func (e *Engine) Global() *ml.Model { return e.global }

// Rounds returns how many rounds have completed.
func (e *Engine) Rounds() int { return e.round }

// History returns the accumulated round records.
func (e *Engine) History() []RoundRecord { return e.history }

// SetRoundObserver attaches (or, with nil, detaches) the per-round
// observability sink after construction — cmd/feisim uses this to wire its
// -trace flag through the simulator. Must not be called while Round runs.
func (e *Engine) SetRoundObserver(o RoundObserver) { e.roundObs = o }

// SetMemSampling toggles per-round memstats sampling (see WithMemSampling).
func (e *Engine) SetMemSampling(on bool) { e.sampleMem = on }

// Shards returns the number of edge servers.
func (e *Engine) Shards() int { return len(e.shards) }

// currentLR returns γ_t = γ0 · decay^t.
func (e *Engine) currentLR() float64 {
	if e.cfg.Decay == 0 {
		return e.cfg.LearningRate
	}
	return e.cfg.LearningRate * math.Pow(e.cfg.Decay, float64(e.round))
}

// localResult carries one client's round output. worker records which pool
// worker trained the slot — observability only (WorkerClaims); it costs
// nothing to track, unlike a shared counter, which would have to be heap-
// allocated into the pool closure even on unobserved rounds.
type localResult struct {
	client int
	worker int
	model  *ml.Model
	loss   float64
	err    error
}

// Round performs one full FedAvg round: select K_t, broadcast ω_t, train E
// local epochs on each selected shard, aggregate per Eq. (2), evaluate.
//
// The round commits atomically: the aggregate is formed in a scratch model
// and evaluated there, and only if every stage succeeds are the global
// model, round counter, and history advanced together. A failed round
// leaves the engine exactly as it was, so callers can retry or abort
// without inheriting a half-advanced state.
func (e *Engine) Round() (RoundRecord, error) {
	// Observability is pay-for-use: with no observer attached the round
	// takes no timestamps and allocates nothing extra.
	obs := e.roundObs
	var pc PhaseClock
	if obs != nil {
		pc = NewPhaseClock(e.sampleMem)
	}

	selected := e.selector.Select(e.rng, len(e.shards), e.cfg.ClientsPerRound, e.round)
	lr := e.currentLR()
	e.ensureRoundScratch(len(selected))
	results := e.results[:len(selected)]

	// Bounded worker pool: each of up to e.parallel workers owns one SGD
	// (and thereby its gradient/probability/shuffle buffers and RNG object)
	// and claims selection slots off a shared cursor. Which worker trains
	// which client is scheduling-dependent, but harmless: a client's
	// training stream is reseeded from (seed, client, round) on every
	// assignment, so the trajectory is identical for any pool size.
	workers := e.parallel
	if workers > len(selected) {
		workers = len(selected)
	}
	if obs != nil {
		pc.Lap(PhaseSelect)
	}
	if workers <= 1 {
		for i, c := range selected {
			results[i] = e.trainLocal(0, i, c, lr)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(selected) {
						return
					}
					results[i] = e.trainLocal(w, i, selected[i], lr)
				}
			}(w)
		}
		wg.Wait()
	}
	// claims[w] counts the selection slots worker w trained — the pool
	// occupancy an observer sees. Built after the pool from the per-slot
	// worker tags so nothing observer-related is captured by (and therefore
	// heap-allocated into) the worker closure on unobserved rounds.
	var claims []int
	if obs != nil {
		claims = make([]int, workers)
		for i := range results {
			if results[i].err == nil {
				claims[results[i].worker]++
			}
		}
	}

	for _, r := range results {
		if r.err != nil {
			return RoundRecord{}, fmt.Errorf("round %d client %d: %w", e.round, r.client, r.err)
		}
	}
	if obs != nil {
		pc.Lap(PhaseTrain)
	}

	// Aggregate (default: ω_{t+1} = (1/K) Σ ω_{k,t}, paper Eq. 2) into the
	// scratch model; the engine's state is untouched until the commit below.
	updates := e.updates[:len(results)]
	for i, r := range results {
		updates[i] = Update{Client: r.client, Model: r.model, Samples: e.shards[r.client].Len()}
	}
	if err := e.agg.Aggregate(e.aggScratch, updates); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d: %w", e.round, err)
	}
	if obs != nil {
		pc.Lap(PhaseAggregate)
	}

	rec := RoundRecord{
		Round:        e.round,
		Selected:     selected,
		LearningRate: lr,
		TestAccuracy: math.NaN(),
		LocalLosses:  make([]float64, len(results)),
	}
	for i, r := range results {
		rec.LocalLosses[i] = r.loss
	}

	loss, err := e.globalLossOf(e.aggScratch)
	if err != nil {
		return RoundRecord{}, fmt.Errorf("round %d global loss: %w", e.round, err)
	}
	rec.TrainLoss = loss

	if e.test != nil {
		if e.testEval == nil {
			e.testEval = ml.NewEvaluator(e.evalParallel)
		}
		acc, err := e.testEval.Accuracy(e.aggScratch, e.test)
		if err != nil {
			return RoundRecord{}, fmt.Errorf("round %d accuracy: %w", e.round, err)
		}
		rec.TestAccuracy = acc
	}
	if obs != nil {
		pc.Lap(PhaseEvaluate)
	}

	// Commit model, round counter, and history together.
	if err := e.global.CopyFrom(e.aggScratch); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d commit: %w", e.round, err)
	}
	e.round++
	e.history = append(e.history, rec)
	if obs != nil {
		st := pc.Finish(rec.Round)
		st.Workers = workers
		st.WorkerClaims = claims
		obs.ObserveRound(st)
	}
	return rec, nil
}

// ensureRoundScratch sizes the per-slot and per-worker reusable buffers for
// a round over k selected clients.
func (e *Engine) ensureRoundScratch(k int) {
	for len(e.localModels) < k {
		e.localModels = append(e.localModels, ml.NewModel(e.global.Classes(), e.global.Features(), e.global.Act))
	}
	workers := e.parallel
	if workers > k {
		workers = k
	}
	if workers < 1 {
		workers = 1
	}
	for len(e.sgds) < workers {
		e.sgds = append(e.sgds, nil)
	}
	if cap(e.results) < k {
		e.results = make([]localResult, k)
		e.updates = make([]Update, k)
	}
	e.results = e.results[:cap(e.results)]
	e.updates = e.updates[:cap(e.updates)]
}

// trainLocal copies the global model into slot scratch and runs E epochs of
// worker w's optimizer on one client's shard.
func (e *Engine) trainLocal(w, slot, client int, lr float64) localResult {
	local := e.localModels[slot]
	if err := local.CopyFrom(e.global); err != nil {
		return localResult{client: client, worker: w, err: err}
	}
	cfg := ml.SGDConfig{
		LearningRate: lr,
		BatchSize:    e.cfg.BatchSize,
		ProximalMu:   e.cfg.ProximalMu,
		// Mini-batch order must not depend on goroutine scheduling or pool
		// size: derive the seed from (run seed, client, round).
		Seed: e.cfg.Seed ^ uint64(client)<<32 ^ uint64(e.round),
	}
	var err error
	if e.sgds[w] == nil {
		e.sgds[w], err = ml.NewSGD(cfg)
	} else {
		err = e.sgds[w].Reset(cfg)
	}
	if err != nil {
		return localResult{client: client, worker: w, err: err}
	}
	sgd := e.sgds[w]
	if e.cfg.ProximalMu > 0 {
		// The FedProx anchor is this round's immutable global snapshot.
		sgd.SetProximalRef(e.global)
	}
	loss, err := sgd.TrainFinal(local, e.shards[client], e.cfg.LocalEpochs)
	if err != nil {
		return localResult{client: client, worker: w, err: err}
	}
	return localResult{client: client, worker: w, model: local, loss: loss}
}

// GlobalLoss evaluates the global objective F(ω) = Σ_k (n_k/n)·F_k(ω) over
// all shards.
func (e *Engine) GlobalLoss() (float64, error) {
	return e.globalLossOf(e.global)
}

// globalLossOf runs the shard-parallel map-reduce for F(ω) over up to
// evalParallel workers; see shardLossMap for the bit-identity and spawn-gate
// contracts.
func (e *Engine) globalLossOf(m *ml.Model) (float64, error) {
	return e.shardLoss.lossOf(m, e.shards, e.totalSamples, e.evalParallel)
}

// StopCondition inspects the history after each round and reports whether
// training should stop.
type StopCondition func(history []RoundRecord) bool

// MaxRounds stops after n rounds.
func MaxRounds(n int) StopCondition {
	return func(h []RoundRecord) bool { return len(h) >= n }
}

// TargetAccuracy stops once the latest test accuracy reaches a.
func TargetAccuracy(a float64) StopCondition {
	return func(h []RoundRecord) bool {
		return len(h) > 0 && h[len(h)-1].TestAccuracy >= a
	}
}

// TargetLoss stops once the latest global training loss falls to l.
func TargetLoss(l float64) StopCondition {
	return func(h []RoundRecord) bool {
		return len(h) > 0 && h[len(h)-1].TrainLoss <= l
	}
}

// AnyOf stops when any of the given conditions holds.
func AnyOf(conds ...StopCondition) StopCondition {
	return func(h []RoundRecord) bool {
		for _, c := range conds {
			if c(h) {
				return true
			}
		}
		return false
	}
}

// Run executes rounds until stop fires and returns the records produced by
// this call. A nil stop is rejected — it would loop forever.
func (e *Engine) Run(stop StopCondition) ([]RoundRecord, error) {
	if stop == nil {
		return nil, fmt.Errorf("nil stop condition: %w", ErrConfig)
	}
	start := len(e.history)
	for !stop(e.history) {
		if _, err := e.Round(); err != nil {
			return e.history[start:], err
		}
	}
	return e.history[start:], nil
}
