package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// The frontier extractor reduces a sweep's cell results to the paper's
// central artifact (Section VI, Table II / Fig. 4 read jointly): the
// energy/accuracy trade-off surface over (K, E) and its Pareto front —
// the cells no other cell beats on both energy (less) and accuracy (more).

// FrontierPoint is one cell annotated with its frontier membership.
type FrontierPoint struct {
	CellResult
	// OnFront reports whether no other cell dominates this one.
	OnFront bool `json:"on_front"`
}

// FrontierResult is the reduced sweep: every cell in grid order plus the
// extracted Pareto front.
type FrontierResult struct {
	// Points holds all cells in grid order, annotated.
	Points []FrontierPoint
	// Front holds the Pareto-optimal cells sorted by energy ascending
	// (ties: accuracy descending, then grid index).
	Front []FrontierPoint
}

// dominates reports whether q beats p: no worse on both axes, strictly
// better on at least one.
func dominates(q, p *CellResult) bool {
	if q.TotalJoules > p.TotalJoules || q.FinalAccuracy < p.FinalAccuracy {
		return false
	}
	return q.TotalJoules < p.TotalJoules || q.FinalAccuracy > p.FinalAccuracy
}

// ComputeFrontier extracts the energy/accuracy Pareto front from a sweep's
// cells. The input order is preserved in Points; the function is pure, so
// identical cell sets always produce identical artifacts.
func ComputeFrontier(cells []CellResult) (*FrontierResult, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("frontier: no cells: %w", ErrExperiment)
	}
	res := &FrontierResult{Points: make([]FrontierPoint, len(cells))}
	for i := range cells {
		dominated := false
		for j := range cells {
			if i != j && dominates(&cells[j], &cells[i]) {
				dominated = true
				break
			}
		}
		res.Points[i] = FrontierPoint{CellResult: cells[i], OnFront: !dominated}
		if !dominated {
			res.Front = append(res.Front, res.Points[i])
		}
	}
	sort.SliceStable(res.Front, func(a, b int) bool {
		fa, fb := &res.Front[a], &res.Front[b]
		if fa.TotalJoules != fb.TotalJoules {
			return fa.TotalJoules < fb.TotalJoules
		}
		if fa.FinalAccuracy != fb.FinalAccuracy {
			return fa.FinalAccuracy > fb.FinalAccuracy
		}
		return fa.Index < fb.Index
	})
	return res, nil
}

// Render writes the sweep table (grid order, frontier cells starred) and a
// frontier summary.
func (f *FrontierResult) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep frontier — energy vs accuracy over (K, E), %d cells\n", len(f.Points))
	fmt.Fprintf(&b, "%4s %5s %7s %9s %10s %10s %14s %12s %6s\n",
		"K", "E", "rounds", "T@target", "final acc", "final loss", "energy (J)", "sim time (s)", "front")
	for _, p := range f.Points {
		marker := ""
		if p.OnFront {
			marker = "*"
		}
		fmt.Fprintf(&b, "%4d %5d %7d %9d %10.4f %10.4f %14.2f %12.1f %6s\n",
			p.K, p.E, p.Rounds, p.RoundsToTarget, p.FinalAccuracy, p.FinalLoss,
			p.TotalJoules, p.WallClockSeconds, marker)
	}
	if len(f.Front) == 0 {
		return flush(w, &b)
	}
	lowest := f.Front[0]
	best := f.Front[0]
	for _, p := range f.Front[1:] {
		if p.FinalAccuracy > best.FinalAccuracy {
			best = p
		}
	}
	fmt.Fprintf(&b, "Pareto front: %d of %d cells; min energy %.2f J at (K=%d,E=%d, acc %.4f); max accuracy %.4f at (K=%d,E=%d, %.2f J)\n",
		len(f.Front), len(f.Points), lowest.TotalJoules, lowest.K, lowest.E, lowest.FinalAccuracy,
		best.FinalAccuracy, best.K, best.E, best.TotalJoules)
	return flush(w, &b)
}
