package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/sim"
)

// Figure3Result reproduces Fig. 3: the power trace of one edge server over
// two rounds of global coordination, segmented into the four phases with
// their mean powers.
type Figure3Result struct {
	// Trace is the 1 kHz power capture.
	Trace *energy.Trace
	// Segments are the recovered phase intervals.
	Segments []energy.Interval
	// Reports are the per-phase aggregates (duration, joules, mean watts).
	Reports []energy.PhaseReport
	// Rounds is the number of coordination rounds the segmentation counts
	// (the paper shows two).
	Rounds int
	// PaperWatts are the published mean phase powers for comparison.
	PaperWatts map[energy.Phase]float64
}

// Figure3 runs two federated rounds in the simulator with full
// participation, reconstructs edge server 0's power trace, and analyses it
// exactly as the paper does with its POWER-Z captures.
func Figure3(setup *Setup, seed uint64) (*Figure3Result, error) {
	cfg := setup.simConfig(setup.Servers, 40, seed) // all servers selected, E=40
	system, err := sim.New(cfg, setup.Shards, setup.Test)
	if err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	res, err := system.Run(fl.MaxRounds(2))
	if err != nil {
		return nil, fmt.Errorf("figure 3 run: %w", err)
	}
	trace, err := system.TraceServer(res.History, 0, 2, seed+1)
	if err != nil {
		return nil, fmt.Errorf("figure 3 trace: %w", err)
	}
	seg, err := energy.NewSegmenter(cfg.Device.Power, 10)
	if err != nil {
		return nil, fmt.Errorf("figure 3 segmenter: %w", err)
	}
	segments, err := seg.Segment(trace)
	if err != nil {
		return nil, fmt.Errorf("figure 3 segmentation: %w", err)
	}
	reports, err := seg.Report(trace)
	if err != nil {
		return nil, fmt.Errorf("figure 3 report: %w", err)
	}
	return &Figure3Result{
		Trace:    trace,
		Segments: segments,
		Reports:  reports,
		Rounds:   energy.CountRounds(segments),
		PaperWatts: map[energy.Phase]float64{
			energy.PhaseWaiting:  3.600,
			energy.PhaseDownload: 4.286,
			energy.PhaseTrain:    5.553,
			energy.PhaseUpload:   5.015,
		},
	}, nil
}

// Render writes the per-phase summary and a coarse ASCII rendering of the
// trace itself.
func (r *Figure3Result) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — edge-server power over %d rounds (%.2f s, %d samples)\n",
		r.Rounds, r.Trace.Duration().Seconds(), len(r.Trace.Samples))
	fmt.Fprintf(&b, "%-10s %10s %10s %12s %12s\n",
		"phase", "dur (s)", "joules", "mean W", "paper W")
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %12.3f %12.3f\n",
			rep.Phase, rep.Duration.Seconds(), rep.Joules, rep.MeanWatts, r.PaperWatts[rep.Phase])
	}
	// Downsampled sparkline: 60 buckets over the trace.
	const buckets = 60
	fmt.Fprint(&b, "trace: ")
	total := r.Trace.Duration()
	for i := 0; i < buckets; i++ {
		from := time.Duration(float64(total) * float64(i) / buckets)
		to := time.Duration(float64(total) * float64(i+1) / buckets)
		b.WriteString(sparkGlyph(r.Trace.MeanPowerBetween(from, to)))
	}
	b.WriteString("\n")
	return flush(w, &b)
}

// sparkGlyph maps a power level to a height glyph between the idle and
// training levels.
func sparkGlyph(watts float64) string {
	glyphs := []string{"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}
	lo, hi := 3.5, 5.7
	frac := (watts - lo) / (hi - lo)
	idx := int(frac * float64(len(glyphs)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(glyphs) {
		idx = len(glyphs) - 1
	}
	return glyphs[idx]
}
