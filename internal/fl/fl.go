// Package fl implements the in-process federated-learning substrate the
// paper's FEI system runs: FedAvg coordination (Section III-A) across edge
// servers holding disjoint shards: K_t drawn uniformly at random each round,
// local epoch counts E, per-round learning-rate decay, parallel local
// training, the Eq. (2) mean, and stop conditions on rounds / loss /
// accuracy. The networked counterpart lives in package flnet; both share
// this package's aggregation logic.
package fl

import (
	"errors"
	"fmt"
	"math"
	"runtime"

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
	if err := c.ValidateSchedule(); err != nil {
		return err
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("batch size %d: %w", c.BatchSize, ErrConfig)
	}
	return nil
}

// LearningRateAt returns γ_t = γ0 · decay^t, the step size of round t — the
// one schedule Engine and the networked coordinator both train under.
func (c Config) LearningRateAt(t int) float64 {
	if c.Decay == 0 {
		return c.LearningRate
	}
	return c.LearningRate * math.Pow(c.Decay, float64(t))
}

// ValidateSchedule checks the two fields LearningRateAt reads: γ0 must be
// positive and finite, and decay in [0, 1] — a decay above 1 grows the step
// every round, and a negative one eventually hands the optimizer a negative
// γ mid-run. The negated comparisons reject NaN.
func (c Config) ValidateSchedule() error {
	if !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 0) {
		return fmt.Errorf("learning rate %v: %w", c.LearningRate, ErrConfig)
	}
	if !(c.Decay >= 0 && c.Decay <= 1) {
		return fmt.Errorf("decay %v: %w", c.Decay, ErrConfig)
	}
	return nil
}

// RoundRecord captures one global coordination round.
type RoundRecord struct {
	// Round is the zero-based round index t.
	Round int
	// Selected are the participating client indices K_t.
	Selected []int
	// TrainLoss is what a round's loss target is judged on. Engine records
	// the global loss F(ω_{t+1}) over the union of all shards, measured
	// after aggregation. flnet.Coordinator holds no shards: it records the
	// mean of the surviving clients' final local losses (LocalLosses), taken
	// before aggregation. The two are not interchangeable for one ε.
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
	// DgramBytes is only set when the round ran over a datagram transport
	// with per-attempt accounting (fldgram). Zero on stream transports.
	DgramBytes
}

// DgramBytes are the per-direction datagram transport counters of one round,
// shared by RoundRecord and RoundStats: attempted counts every packet
// transmission including retransmissions and injected drops — the energy the
// radio actually spent — while delivered counts unique acknowledged packets,
// both at wire size (datagram headers included). Their ratio is the measured
// expected attempts per delivery, which Eq. 4's geometric retransmission
// model predicts converges to 1/p on the unlicensed band.
type DgramBytes struct {
	DownlinkAttemptBytes   int64 `json:"downlink_attempt_bytes,omitempty"`
	DownlinkDeliveredBytes int64 `json:"downlink_delivered_bytes,omitempty"`
	UplinkAttemptBytes     int64 `json:"uplink_attempt_bytes,omitempty"`
	UplinkDeliveredBytes   int64 `json:"uplink_delivered_bytes,omitempty"`
}

// Engine runs FedAvg over in-memory shards.
//
// The per-round hot path is allocation-free after the first round: local
// training runs on the bounded worker pool (see pool) whose per-slot
// scratch models and per-worker optimizers (each owning its gradient
// accumulator, batched-forward chunk scratch, shuffle buffer, and RNG
// stream) are reused round over round, the aggregate lands in a scratch
// model that is committed only when the whole round — including evaluation —
// succeeds, and global loss / test accuracy are computed by a shard-parallel
// map-reduce over per-worker evaluators.
// See DESIGN.md §7 for the scratch-ownership rules.
type Engine struct {
	cfg     Config
	rng     *mat.RNG
	round   int
	history []RoundRecord

	// The validated fleet, the global model and the scratch model a round
	// is aggregated and evaluated in before commit publishes it.
	shards       []*dataset.Dataset
	totalSamples int
	test         *dataset.Dataset
	global       *ml.Model
	scratch      *ml.Model
	// parallel caps the local-training workers and evalParallel the
	// post-aggregation evaluation workers, both GOMAXPROCS. Results are
	// bit-identical for every setting: a client's training stream derives
	// from (seed, client, round), never from which worker ran it; per-shard
	// losses reduce in shard order; the test pass uses a fixed chunk
	// decomposition. The package's tests pin this at several sizes.
	parallel     int
	evalParallel int
	roundObs     RoundObserver
	sampleMem    bool

	// sgds is indexed by pool worker (a worker trains its claimed slots
	// sequentially), errs by selection slot.
	sgds []ml.SGD
	errs []error
	// Evaluation scratch: the shard-parallel loss map-reduce and a
	// chunk-parallel evaluator for the test set.
	shardLoss shardLossMap
	testEval  *ml.Evaluator

	// Round-loop scratch, reused across rounds and indexed by selection slot
	// (each slot's result must survive until aggregation). selected and lr
	// are the in-flight round's inputs, kept here rather than in a closure so
	// an unobserved round allocates nothing for the pool.
	localModels []*ml.Model
	updates     []Update
	losses      []float64
	selected    []int
	lr          float64
}

// Option customizes an Engine.
type Option func(*Engine)

// WithTestSet attaches a held-out evaluation set; rounds then report
// TestAccuracy.
func WithTestSet(test *dataset.Dataset) Option {
	return func(e *Engine) { e.test = test }
}

// NewEngine validates the config and builds an engine over the given shards.
// Every shard must be valid, and all must agree on dimensionality and class
// count.
func NewEngine(cfg Config, shards []*dataset.Dataset, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(len(shards)); err != nil {
		return nil, err
	}
	dim, classes := shards[0].Dim(), shards[0].Classes
	total := 0
	for i, s := range shards {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if s.Dim() != dim || s.Classes != classes {
			return nil, fmt.Errorf("shard %d shape %d/%d differs from shard 0 %d/%d: %w",
				i, s.Dim(), s.Classes, dim, classes, ErrConfig)
		}
		total += s.Len()
	}
	act := cfg.Activation
	if act == 0 {
		act = ml.Softmax
	}
	e := &Engine{
		cfg:          cfg,
		rng:          mat.NewRNG(cfg.Seed),
		shards:       shards,
		totalSamples: total,
		global:       ml.NewModel(classes, dim, act),
		scratch:      ml.NewModel(classes, dim, act),
		parallel:     runtime.GOMAXPROCS(0),
		evalParallel: runtime.GOMAXPROCS(0),
	}
	e.shardLoss.init(len(shards))
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// Global returns the current global model (live reference; callers must not
// mutate it mid-run).
func (e *Engine) Global() *ml.Model { return e.global }

// History returns the accumulated round records.
func (e *Engine) History() []RoundRecord { return e.history }

// Round performs one full FedAvg round: select K_t, broadcast ω_t, train E
// local epochs on each selected shard, aggregate per Eq. (2), evaluate.
//
// The round commits atomically: the aggregate is formed in a scratch model
// and evaluated there, and only if every stage succeeds are the global
// model, round counter, and history advanced together. A failed round
// leaves the engine exactly as it was, so callers can retry or abort
// without inheriting a half-advanced state.
func (e *Engine) Round() (RoundRecord, error) {
	pc := e.clock()
	e.selected = e.rng.Sample(len(e.shards), e.cfg.ClientsPerRound)
	e.lr = e.cfg.LearningRateAt(e.round)
	k := len(e.selected)
	for len(e.localModels) < k {
		e.localModels = append(e.localModels, ml.NewModel(e.global.Classes(), e.global.Features(), e.global.Act))
		e.updates = append(e.updates, Update{})
		e.losses = append(e.losses, 0)
	}
	pc.Lap(PhaseSelect)

	workers, claims, err := e.pool(k, (*roundJob)(e))
	if err != nil {
		return RoundRecord{}, err
	}
	pc.Lap(PhaseTrain)

	// Aggregate ω_{t+1} = (1/K) Σ ω_{k,t} (paper Eq. 2) into the scratch
	// model; the engine's state is untouched until the commit below.
	if err := Mean(e.scratch, e.updates[:k]); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d: %w", e.round, err)
	}
	pc.Lap(PhaseAggregate)

	rec := RoundRecord{
		Round:        e.round,
		Selected:     e.selected,
		LearningRate: e.lr,
		LocalLosses:  append([]float64(nil), e.losses[:k]...),
	}
	rec.TrainLoss, rec.TestAccuracy, err = e.evaluate(e.scratch)
	if err != nil {
		return RoundRecord{}, fmt.Errorf("round %d: %w", e.round, err)
	}
	pc.Lap(PhaseEvaluate)

	// Commit model, round counter, and history together.
	if err := e.commit(); err != nil {
		return RoundRecord{}, fmt.Errorf("round %d commit: %w", e.round, err)
	}
	e.round++
	e.history = append(e.history, rec)
	e.finish(&pc, rec.Round, workers, claims)
	return rec, nil
}

// roundJob is Engine as the pool job of its in-flight round (a named type
// only because Engine.Run is taken): index = selection slot.
type roundJob Engine

// Run copies the global model into the slot's scratch model and trains it
// for E epochs on the slot's client.
func (j *roundJob) Run(w, slot int) {
	e := (*Engine)(j)
	client, local := e.selected[slot], e.localModels[slot]
	err := local.CopyFrom(e.global)
	if err == nil {
		e.losses[slot], err = e.train(w, local, client)
	}
	if err != nil {
		e.errs[slot] = fmt.Errorf("round %d client %d: %w", e.round, client, err)
	}
	e.updates[slot] = Update{Client: client, Model: local}
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
