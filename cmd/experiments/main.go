// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the index):
//
//	experiments                    # everything at quick scale
//	experiments -only fig6         # one experiment
//	experiments -scale paper       # prototype-scale dimensions (slow)
//
// Experiment ids: table1, table2, fig3, fig4, fig5, fig6, ablation, theory,
// constants, calibrate.
//
// -sweep switches to the (K, E) sweep subsystem instead of the figure
// harnesses (checkpointed, resumable, trained across GOMAXPROCS; see
// DESIGN.md §7 "Full-scale sweeps"). -trace holds the per-round records of
// the cells one invocation trains, one cell after another in grid order:
//
//	experiments -scale full -sweep "K=1,5,10,50,100;E=1,5,20" -out results/
//	experiments -scale full -sweep "K=1..100;E=1,5,20" -resume results/sweep.jsonl -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"eefei/internal/core"
	"eefei/internal/experiments"
	"eefei/internal/ml"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// csvFunc writes one data file of an experiment into the -csv directory; it
// does nothing without -csv.
type csvFunc func(name string, write func(io.Writer) error) error

// experiment is one id -only accepts.
type experiment struct {
	id string
	// setup reports whether run needs the scale's training setup; run gets
	// nil otherwise.
	setup bool
	// run renders the experiment to w and hands its data files to csv.
	run func(s *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error
}

// experimentList holds every experiment in the order run executes them.
var experimentList = []experiment{
	{"table1", false, func(_ *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.Table1(seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return csv("table1.csv", func(f io.Writer) error { return experiments.WriteTable1CSV(f, res) })
	}},
	{"table2", false, func(_ *experiments.Setup, _ uint64, w io.Writer, _ csvFunc) error {
		return experiments.RenderTable2(w, experiments.Table2())
	}},
	{"fig3", true, func(s *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.Figure3(s, seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return csv("fig3_trace.csv", func(f io.Writer) error { return experiments.WriteTraceCSV(f, res) })
	}},
	{"fig4", true, func(s *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.Figure4(s, seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return csv("fig4_convergence.csv", func(f io.Writer) error { return experiments.WriteFigure4CSV(f, res) })
	}},
	{"fig5", true, func(s *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.Figure5(s, seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return csv("fig5_energy_vs_k.csv", func(f io.Writer) error { return experiments.WriteEnergyCurveCSV(f, "K", res.Points) })
	}},
	{"fig6", true, func(s *experiments.Setup, seed uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.Figure6(s, seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		return csv("fig6_energy_vs_e.csv", func(f io.Writer) error { return experiments.WriteEnergyCurveCSV(f, "E", res.Points) })
	}},
	{"theory", false, func(_ *experiments.Setup, _ uint64, w io.Writer, csv csvFunc) error {
		res, err := experiments.PaperTheoryCurves()
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		if err := csv("theory_k_curve.csv", func(f io.Writer) error { return experiments.WriteEnergyCurveCSV(f, "K", res.KCurve) }); err != nil {
			return err
		}
		return csv("theory_e_curve.csv", func(f io.Writer) error { return experiments.WriteEnergyCurveCSV(f, "E", res.ECurve) })
	}},
	{"constants", true, func(s *experiments.Setup, _ uint64, w io.Writer, _ csvFunc) error {
		return constants(s, w)
	}},
	{"calibrate", true, func(s *experiments.Setup, seed uint64, w io.Writer, _ csvFunc) error {
		res, err := experiments.CompareCalibration(s, 4, 10, 5, 0.01, seed)
		if err != nil {
			return err
		}
		return res.Render(w)
	}},
	{"ablation", true, func(s *experiments.Setup, seed uint64, w io.Writer, _ csvFunc) error {
		ks := []int{1, 8}
		skew, err := experiments.LabelSkewAblation(s, seed, []float64{0, 0.5, 0.9}, ks, 10)
		if err != nil {
			return fmt.Errorf("skew: %w", err)
		}
		if err := experiments.RenderSkew(w, skew, ks); err != nil {
			return err
		}
		quant, err := experiments.QuantizationAblation(s, seed)
		if err != nil {
			return fmt.Errorf("quantization: %w", err)
		}
		if err := experiments.RenderQuant(w, quant); err != nil {
			return err
		}
		stability, err := experiments.SeedStability(s, seed, 4, 10, 5)
		if err != nil {
			return fmt.Errorf("seed stability: %w", err)
		}
		_, err = fmt.Fprintf(w, "Seed stability — energy to target at (K=4,E=10): %v\n", stability)
		return err
	}},
}

func run(args []string, out io.Writer) error {
	ids := make([]string, len(experimentList))
	for i, x := range experimentList {
		ids[i] = x.id
	}
	experimentIDs := strings.Join(ids, ",")
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick|paper|full")
		only      = fs.String("only", "", "comma-separated experiment ids out of "+experimentIDs+" (default: all)")
		seed      = fs.Uint64("seed", 1, "experiment seed")
		csvDir    = fs.String("csv", "", "also write figure data as CSV files into this directory")

		sweepGrid   = fs.String("sweep", "", `run a (K,E) sweep over this grid instead of the figure harnesses, e.g. "K=1,5,10,50,100;E=1,5,20" (ranges: K=1..100)`)
		sweepRounds = fs.Int("sweep-rounds", 0, "per-cell round cap override for -sweep (0: scale default)")
		resumePath  = fs.String("resume", "", "resume the sweep from this checkpoint JSONL (must match the grid and seed)")
		outDir      = fs.String("out", "", "write the sweep checkpoint (sweep.jsonl) and frontier (frontier.csv) into this directory")
		tracePath   = fs.String("trace", "", "write the per-round JSONL records of the cells this sweep trains to this file, cell after cell in grid order")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}

	if *sweepGrid != "" {
		return runSweep(out, scale, *sweepGrid, *resumePath, *outDir, *tracePath,
			*sweepRounds, *seed)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(ids, id) {
				return fmt.Errorf("-only: unknown experiment id %q (valid: %s)", id, experimentIDs)
			}
			want[id] = true
		}
	}
	csv := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "csv written: %s\n", path)
		return err
	}

	var setup *experiments.Setup
	for _, x := range experimentList {
		if len(want) > 0 && !want[x.id] {
			continue
		}
		fmt.Fprintf(out, "\n===== %s (%v scale) =====\n", x.id, scale)
		var s *experiments.Setup
		if x.setup {
			if setup == nil {
				if setup, err = experiments.NewSetup(scale); err != nil {
					return err
				}
			}
			s = setup
		}
		start := time.Now()
		if err := x.run(s, *seed, out, csv); err != nil {
			return fmt.Errorf("%s: %w", x.id, err)
		}
		if _, err := fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds()); err != nil {
			return err
		}
	}
	return nil
}

// constants runs the first-principles pipeline: long centralized training
// gives the reference optimum; σ², L and ‖ω0−ω*‖² are then estimated from
// the shards and folded into bound constants.
func constants(s *experiments.Setup, w io.Writer) error {
	union, err := experiments.UnionDataset(s)
	if err != nil {
		return err
	}
	reference := ml.NewModel(union.Classes, union.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: s.LearningRate, Decay: 0.9995})
	if err != nil {
		return err
	}
	if _, err := sgd.TrainFinal(reference, union, 800); err != nil {
		return err
	}
	phys, err := core.EstimatePhysical(reference, s.Shards, s.LearningRate, 1, 1, 1,
		core.EstimateOptions{Seed: 1})
	if err != nil {
		return err
	}
	bound, err := phys.Aggregate()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, `estimated physical constants (quick-scale data):
  σ² (gradient variance at optimum) = %.6g
  L  (smoothness bound)             = %.6g
  ‖ω0−ω*‖²                          = %.6g
aggregated (α0=α1=α2=1): A0=%.6g A1=%.6g A2=%.6g
`, phys.GradientVarianceAtOpt, phys.Smoothness, phys.InitialDistanceSq, bound.A0, bound.A1, bound.A2)
	return err
}

// runSweep drives the (K, E) sweep subsystem: parse the grid, optionally
// load a resume checkpoint, train the remaining cells, and record the
// frontier artifacts. Progress goes to stderr so stdout stays the rendered
// frontier alone.
func runSweep(out io.Writer, scale experiments.Scale, grid, resumePath, outDir, tracePath string, rounds int, seed uint64) error {
	spec, err := experiments.ParseSweepGrid(grid)
	if err != nil {
		return err
	}
	spec.Seed = seed
	spec.RoundCap = rounds

	var opts experiments.SweepOptions
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		cells, err := experiments.ReadSweepCheckpoint(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", resumePath, err)
		}
		opts.Resume = cells
		fmt.Fprintf(os.Stderr, "sweep: resuming from %s (%d cells done)\n", resumePath, len(cells))
	}
	var ckpt *os.File
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fmt.Errorf("out dir: %w", err)
		}
		// The checkpoint is rewritten whole (resumed prefix first) so the
		// file is always a clean grid-order prefix, even when -resume names
		// this same path.
		ckpt, err = os.Create(filepath.Join(outDir, "sweep.jsonl"))
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		defer ckpt.Close()
		opts.Checkpoint = ckpt
	}
	var trace *os.File
	if tracePath != "" {
		if trace, err = os.Create(tracePath); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Close()
		opts.Trace = trace
	}

	setupStart := time.Now()
	setup, err := experiments.NewSetup(scale)
	if err != nil {
		return err
	}
	total := len(spec.Ks) * len(spec.Es)
	fmt.Fprintf(os.Stderr, "sweep: %v setup ready in %.1fs (%d servers × %d samples), grid %d×%d = %d cells\n",
		scale, time.Since(setupStart).Seconds(), setup.Servers, setup.SamplesPerServer(),
		len(spec.Ks), len(spec.Es), total)

	start := time.Now()
	opts.Progress = func(done int, c experiments.CellResult) {
		// Resumed cells took no time here: the rate counts trained ones.
		elapsed := time.Since(start)
		eta := elapsed / time.Duration(done-len(opts.Resume)) * time.Duration(total-done)
		fmt.Fprintf(os.Stderr, "sweep %d/%d: K=%d E=%d rounds=%d acc=%.4f %.1f J (elapsed %s, ETA %s)\n",
			done, total, c.K, c.E, c.Rounds, c.FinalAccuracy, c.TotalJoules,
			elapsed.Round(time.Second), eta.Round(time.Second))
	}
	cells, err := experiments.RunSweep(setup, spec, opts)
	if err != nil {
		return err
	}
	for _, f := range []*os.File{ckpt, trace} {
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	frontier, err := experiments.ComputeFrontier(cells)
	if err != nil {
		return err
	}
	if err := frontier.Render(out); err != nil {
		return err
	}
	if outDir != "" {
		path := filepath.Join(outDir, "frontier.csv")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("frontier csv: %w", err)
		}
		if err := experiments.WriteFrontierCSV(f, frontier); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "frontier csv written: %s\n", path)
	}
	return nil
}
