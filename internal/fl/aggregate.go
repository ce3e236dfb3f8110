package fl

import (
	"errors"
	"fmt"

	"eefei/internal/ml"
)

// ErrAggregate is returned (wrapped) when an aggregation cannot be formed.
var ErrAggregate = errors.New("fl: aggregation error")

// Update is one client's contribution to a round: its locally trained model.
type Update struct {
	Client int
	Model  *ml.Model
}

// Mean writes the paper's Eq. (2), ω ← (1/K)·Σ ω_k, into dst (which the
// caller pre-sizes to the model shape; previous contents are discarded),
// adding the updates in slice order. Engine.Round and the networked
// coordinator both aggregate through it.
func Mean(dst *ml.Model, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("no updates: %w", ErrAggregate)
	}
	dst.Zero()
	w := 1 / float64(len(updates))
	for _, u := range updates {
		if err := dst.AddScaled(w, u.Model); err != nil {
			return fmt.Errorf("mean of client %d: %w", u.Client, err)
		}
	}
	return nil
}
