package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Figure4Series is one curve of Fig. 4: loss and accuracy per round for a
// fixed (K, E) combination.
type Figure4Series struct {
	Label    string
	K, E     int
	Loss     []float64
	Accuracy []float64
	// RoundsToTarget is the 1-based round count at which the series first
	// reaches the setup's accuracy target, or -1.
	RoundsToTarget int
	// LocalGradientRounds is E × RoundsToTarget, the total local compute
	// the paper tallies in its Fig.-4d discussion (5600 / 3600 / 6000).
	LocalGradientRounds int
}

// Figure4Result holds both halves of Fig. 4.
type Figure4Result struct {
	// FixedE sweeps K with E pinned (Fig. 4a/4b).
	FixedE []Figure4Series
	// FixedK sweeps E with K pinned (Fig. 4c/4d).
	FixedK []Figure4Series
	// PinnedE and PinnedK document the pinned values (paper: E=40, K=10).
	PinnedE, PinnedK int
	// Target is the accuracy threshold used for RoundsToTarget.
	Target float64
}

// Figure4Ks and Figure4Es are the paper's sweep values.
var (
	Figure4Ks = []int{1, 5, 10, 20}
	Figure4Es = []int{1, 20, 40, 100}
)

// Figure4 runs the full convergence study: the K-sweep at E=40 and the
// E-sweep at K=10, each training to the accuracy target (or the cap).
func Figure4(setup *Setup, seed uint64) (*Figure4Result, error) {
	res := &Figure4Result{PinnedE: 40, PinnedK: 10, Target: setup.AccuracyTarget}
	var cells []cell
	for _, k := range Figure4Ks {
		cells = append(cells, cell{k, res.PinnedE, seed})
	}
	for _, e := range Figure4Es {
		cells = append(cells, cell{res.PinnedK, e, seed})
	}
	runs, err := setup.train(cells)
	if err != nil {
		return nil, fmt.Errorf("figure 4: %w", err)
	}
	for i, run := range runs {
		k, e := cells[i].k, cells[i].e
		s := Figure4Series{
			Label:               fmt.Sprintf("K=%d,E=%d", k, e),
			K:                   k,
			E:                   e,
			RoundsToTarget:      RoundsToAccuracy(run.History, setup.AccuracyTarget),
			LocalGradientRounds: -1,
		}
		for _, rec := range run.History {
			s.Loss = append(s.Loss, rec.TrainLoss)
			s.Accuracy = append(s.Accuracy, rec.TestAccuracy)
		}
		if s.RoundsToTarget > 0 {
			s.LocalGradientRounds = e * s.RoundsToTarget
		}
		if i < len(Figure4Ks) {
			res.FixedE = append(res.FixedE, s)
		} else {
			res.FixedK = append(res.FixedK, s)
		}
	}
	return res, nil
}

// Render prints the headline numbers of each series plus downsampled
// loss/accuracy curves.
func (r *Figure4Result) Render(w io.Writer) error {
	var b strings.Builder
	write := func(title string, series []Figure4Series) {
		fmt.Fprintln(&b, title)
		fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %12s\n",
			"series", "rounds", "last loss", "last acc", "T@target", "E·T@target")
		for _, s := range series {
			lastLoss, lastAcc := math.NaN(), math.NaN()
			if n := len(s.Loss); n > 0 {
				lastLoss, lastAcc = s.Loss[n-1], s.Accuracy[n-1]
			}
			fmt.Fprintf(&b, "%-12s %8d %10.4f %10.4f %10d %12d\n",
				s.Label, len(s.Loss), lastLoss, lastAcc, s.RoundsToTarget, s.LocalGradientRounds)
		}
		for _, s := range series {
			fmt.Fprintf(&b, "  %-12s loss %s\n", s.Label, sparkSeries(s.Loss, true))
			fmt.Fprintf(&b, "  %-12s acc  %s\n", s.Label, sparkSeries(s.Accuracy, false))
		}
	}
	write(fmt.Sprintf("Figure 4a/4b — fixed E=%d, sweep K (target %.2f)", r.PinnedE, r.Target), r.FixedE)
	write(fmt.Sprintf("Figure 4c/4d — fixed K=%d, sweep E (target %.2f)", r.PinnedK, r.Target), r.FixedK)
	return flush(w, &b)
}

// sparkSeries downsamples a series to 40 glyphs; invert renders smaller
// values taller (for losses).
func sparkSeries(xs []float64, invert bool) string {
	if len(xs) == 0 {
		return "(empty)"
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	const buckets = 40
	glyphs := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, 0, buckets)
	for b := 0; b < buckets; b++ {
		i := b * len(xs) / buckets
		frac := (xs[i] - lo) / (hi - lo)
		if invert {
			frac = 1 - frac
		}
		idx := int(frac * float64(len(glyphs)-1))
		out = append(out, glyphs[idx])
	}
	return string(out)
}
