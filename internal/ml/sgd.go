package ml

import (
	"fmt"
	"math"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// SGDConfig holds the optimizer hyper-parameters from the paper's Table II:
// learning rate 0.01 with multiplicative decay 0.99 per global round, full
// batch (BatchSize = 0 means "use the whole shard").
type SGDConfig struct {
	// LearningRate is the initial step size γ.
	LearningRate float64
	// Decay multiplies the learning rate after every epoch; zero disables
	// decay. The federated engines leave it zero and decay per global round
	// instead (fl.Config.LearningRateAt).
	Decay float64
	// BatchSize is the mini-batch size n_k; 0 selects full-batch SGD, the
	// paper's setting.
	BatchSize int
	// Seed drives mini-batch shuffling (unused for full batch).
	Seed uint64
}

// SGD performs gradient-descent epochs over a dataset, tracking the decayed
// learning rate across calls until the next Reset.
type SGD struct {
	cfg  SGDConfig
	lr   float64
	rng  *mat.RNG
	grad *Model     // reusable gradient accumulator
	fwd  fwdScratch // reusable batched-forward chunk scratch
	perm []int      // reusable mini-batch shuffle buffer
}

// NewSGD validates cfg and returns an optimizer.
func NewSGD(cfg SGDConfig) (*SGD, error) {
	s := &SGD{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset revalidates and adopts cfg, rewinds the decay schedule and reseeds
// the shuffle stream in place, while keeping the gradient accumulator and
// scratch buffers. A federated worker calls
// Reset once per (client, round) assignment so that training allocates
// nothing after the first round, and the resulting streams depend only on
// cfg.Seed, never on which worker ran the client.
func (s *SGD) Reset(cfg SGDConfig) error {
	// The negated comparisons reject NaN, as fl.Config.ValidateSchedule's do.
	if !(cfg.LearningRate > 0) || math.IsInf(cfg.LearningRate, 0) {
		return fmt.Errorf("ml: learning rate %v must be positive and finite", cfg.LearningRate)
	}
	if !(cfg.Decay >= 0 && cfg.Decay <= 1) {
		return fmt.Errorf("ml: decay %v outside [0,1]", cfg.Decay)
	}
	if cfg.BatchSize < 0 {
		return fmt.Errorf("ml: batch size %v negative", cfg.BatchSize)
	}
	s.cfg = cfg
	s.lr = cfg.LearningRate
	if s.rng == nil {
		s.rng = mat.NewRNG(cfg.Seed)
	} else {
		s.rng.Reseed(cfg.Seed)
	}
	return nil
}

// Epoch performs one pass over d, updating m in place, and returns the mean
// loss measured at the start of the pass.
func (s *SGD) Epoch(m *Model, d *dataset.Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, dataset.ErrEmpty
	}
	if d.Dim() != m.Features() {
		return 0, fmt.Errorf("epoch on %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	if s.grad == nil || s.grad.Classes() != m.Classes() || s.grad.Features() != m.Features() {
		s.grad = NewModel(m.Classes(), m.Features(), m.Act)
	}

	var loss float64
	if s.cfg.BatchSize <= 0 || s.cfg.BatchSize >= d.Len() {
		// Full-batch gradient descent (the paper's setting).
		s.grad.Zero()
		l, err := gradientRows(m, d, nil, s.grad, &s.fwd)
		if err != nil {
			return 0, fmt.Errorf("epoch gradient: %w", err)
		}
		loss = l
		if err := m.AddScaled(-s.lr, s.grad); err != nil {
			return 0, fmt.Errorf("epoch update: %w", err)
		}
	} else {
		// Mini-batch pass in shuffled order. The shuffle buffer is reused
		// across epochs and batches are permutation slices fed straight to
		// the gradient core — no subset datasets are materialized.
		if len(s.perm) != d.Len() {
			s.perm = make([]int, d.Len())
		}
		s.rng.PermInto(s.perm)
		var batches, lossSum float64
		for start := 0; start < len(s.perm); start += s.cfg.BatchSize {
			end := start + s.cfg.BatchSize
			if end > len(s.perm) {
				end = len(s.perm)
			}
			s.grad.Zero()
			l, err := gradientRows(m, d, s.perm[start:end], s.grad, &s.fwd)
			if err != nil {
				return 0, fmt.Errorf("epoch gradient: %w", err)
			}
			lossSum += l
			batches++
			if err := m.AddScaled(-s.lr, s.grad); err != nil {
				return 0, fmt.Errorf("epoch update: %w", err)
			}
		}
		loss = lossSum / batches
	}

	if s.cfg.Decay > 0 {
		s.lr *= s.cfg.Decay
	}
	return loss, nil
}

// TrainFinal runs epochs passes over d and returns the final epoch's loss
// (measured at the start of that pass), allocating nothing: the federated
// engine trains K clients per round through it. A caller that wants the
// whole loss trajectory calls Epoch in its own loop.
func (s *SGD) TrainFinal(m *Model, d *dataset.Dataset, epochs int) (float64, error) {
	if epochs <= 0 {
		return 0, fmt.Errorf("ml: epochs %d must be positive", epochs)
	}
	var last float64
	for e := 0; e < epochs; e++ {
		l, err := s.Epoch(m, d)
		if err != nil {
			return 0, fmt.Errorf("epoch %d: %w", e, err)
		}
		last = l
	}
	return last, nil
}
