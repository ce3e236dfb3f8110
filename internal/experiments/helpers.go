package experiments

import (
	"fmt"

	"eefei/internal/core"
	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// fitA0A1 least-squares fits gap ≈ A0/(TE) + A1/K + C (intercept C absorbs
// the empirical noise floor and is discarded; A2 is pinned separately).
func fitA0A1(obs []core.GapObservation) (a0, a1 float64, err error) {
	if len(obs) < 3 {
		return 0, 0, fmt.Errorf("%d gap observations, need >= 3: %w", len(obs), ErrExperiment)
	}
	design := mat.NewDense(len(obs), 3)
	y := make([]float64, len(obs))
	for i, o := range obs {
		design.Set(i, 0, 1/float64(o.T*o.E))
		design.Set(i, 1, 1/float64(o.K))
		design.Set(i, 2, 1)
		y[i] = o.Gap
	}
	coef, err := mat.QRLeastSquares(design, y)
	if err != nil {
		return 0, 0, fmt.Errorf("A0/A1 fit: %w", err)
	}
	const floor = 1e-9
	a0, a1 = coef[0], coef[1]
	if a0 < floor {
		a0 = floor
	}
	if a1 < floor {
		a1 = floor
	}
	return a0, a1, nil
}

// roundsToTarget trains (k, e) to the setup's accuracy target and returns
// the empirical round count (the round cap when never reached).
func roundsToTarget(setup *Setup, k, e int) (int, error) {
	res, err := setup.RunTraining(k, e, 2)
	if err != nil {
		return 0, fmt.Errorf("reference (K=%d,E=%d): %w", k, e, err)
	}
	if t := RoundsToAccuracy(res.History, setup.AccuracyTarget); t > 0 {
		return t, nil
	}
	return len(res.History), nil
}

// UnionDataset returns the union of the setup's shards in shard order, the
// set F(ω*) and cmd/experiments' reference model train on. It is a view of
// the shards' storage, not a copy.
func UnionDataset(setup *Setup) (*dataset.Dataset, error) {
	if setup.union == nil {
		return nil, fmt.Errorf("no shards: %w", ErrExperiment)
	}
	return setup.union, nil
}
