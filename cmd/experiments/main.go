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
// harnesses (checkpointed, resumable, parallel; see DESIGN.md §7
// "Full-scale sweeps"):
//
//	experiments -scale full -sweep "K=1,5,10,50,100;E=1,5,20" -out results/
//	experiments -scale full -sweep "K=1..100;E=1,5,20" -resume results/sweep.jsonl -out results/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"eefei/internal/core"
	"eefei/internal/experiments"
	"eefei/internal/fl"
	"eefei/internal/ml"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experimentIDs is every id -only accepts, in the order run executes them.
const experimentIDs = "table1,table2,fig3,fig4,fig5,fig6,theory,constants,calibrate,ablation"

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick|paper|full")
		only      = fs.String("only", "", "comma-separated experiment ids out of "+experimentIDs+" (default: all)")
		seed      = fs.Uint64("seed", 1, "experiment seed")
		csvDir    = fs.String("csv", "", "also write figure data as CSV files into this directory")

		sweepGrid   = fs.String("sweep", "", `run a (K,E) sweep over this grid instead of the figure harnesses, e.g. "K=1,5,10,50,100;E=1,5,20" (ranges: K=1..100)`)
		sweepRounds = fs.Int("sweep-rounds", 0, "per-cell round cap override for -sweep (0: scale default)")
		workers     = fs.Int("workers", 0, "sweep worker pool size (0: GOMAXPROCS; every value is bit-identical)")
		resumePath  = fs.String("resume", "", "resume the sweep from this checkpoint JSONL (must match the grid and seed)")
		outDir      = fs.String("out", "", "write the sweep checkpoint (sweep.jsonl) and frontier (frontier.csv) into this directory")
		tracePath   = fs.String("trace", "", "append per-round JSONL observability records to this file during the sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}

	if *sweepGrid != "" {
		return runSweep(os.Stdout, scale, *sweepGrid, *resumePath, *outDir, *tracePath,
			*sweepRounds, *workers, *seed)
	}

	want := map[string]bool{}
	if *only != "" {
		valid := strings.Split(experimentIDs, ",")
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(valid, id) {
				return fmt.Errorf("-only: unknown experiment id %q (valid: %s)", id, experimentIDs)
			}
			want[id] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }

	var setup *experiments.Setup
	getSetup := func() (*experiments.Setup, error) {
		if setup == nil {
			s, err := experiments.NewSetup(scale)
			if err != nil {
				return nil, err
			}
			setup = s
		}
		return setup, nil
	}

	out := os.Stdout
	section := func(id string) {
		fmt.Fprintf(out, "\n===== %s (%v scale) =====\n", id, scale)
	}
	writeCSV := func(name string, write func(f *os.File) error) error {
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
		fmt.Fprintf(out, "csv written: %s\n", path)
		return nil
	}

	if selected("table1") {
		section("table1")
		start := time.Now()
		res, err := experiments.Table1(*seed)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("table1.csv", func(f *os.File) error {
			return experiments.WriteTable1CSV(f, res)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("table2") {
		section("table2")
		if err := experiments.RenderTable2(out, experiments.Table2()); err != nil {
			return err
		}
	}

	if selected("fig3") {
		section("fig3")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.Figure3(s, *seed)
		if err != nil {
			return fmt.Errorf("fig3: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("fig3_trace.csv", func(f *os.File) error {
			return experiments.WriteTraceCSV(f, res)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("fig4") {
		section("fig4")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.Figure4(s)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("fig4_convergence.csv", func(f *os.File) error {
			return experiments.WriteFigure4CSV(f, res)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("fig5") {
		section("fig5")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.Figure5(s, experiments.SweepConfig{})
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("fig5_energy_vs_k.csv", func(f *os.File) error {
			return experiments.WriteEnergyCurveCSV(f, "K", res.Points)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("fig6") {
		section("fig6")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.Figure6(s, experiments.SweepConfig{})
		if err != nil {
			return fmt.Errorf("fig6: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("fig6_energy_vs_e.csv", func(f *os.File) error {
			return experiments.WriteEnergyCurveCSV(f, "E", res.Points)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("theory") {
		section("theory")
		res, err := experiments.PaperTheoryCurves()
		if err != nil {
			return fmt.Errorf("theory: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		if err := writeCSV("theory_k_curve.csv", func(f *os.File) error {
			return experiments.WriteEnergyCurveCSV(f, "K", res.KCurve)
		}); err != nil {
			return err
		}
		if err := writeCSV("theory_e_curve.csv", func(f *os.File) error {
			return experiments.WriteEnergyCurveCSV(f, "E", res.ECurve)
		}); err != nil {
			return err
		}
	}

	if selected("constants") {
		section("constants")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		// First-principles pipeline: long centralized training gives the
		// reference optimum; σ², L and ‖ω0−ω*‖² are then estimated from the
		// shards and folded into bound constants.
		union, err := experiments.UnionDataset(s)
		if err != nil {
			return err
		}
		reference := ml.NewModel(union.Classes, union.Dim(), ml.Softmax)
		sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: s.LearningRate, Decay: 0.9995, DecayEvery: 1})
		if err != nil {
			return err
		}
		if _, err := sgd.Train(reference, union, 800); err != nil {
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
		fmt.Fprintf(out, "estimated physical constants (quick-scale data):\n")
		fmt.Fprintf(out, "  σ² (gradient variance at optimum) = %.6g\n", phys.GradientVarianceAtOpt)
		fmt.Fprintf(out, "  L  (smoothness bound)             = %.6g\n", phys.Smoothness)
		fmt.Fprintf(out, "  ‖ω0−ω*‖²                          = %.6g\n", phys.InitialDistanceSq)
		fmt.Fprintf(out, "aggregated (α0=α1=α2=1): A0=%.6g A1=%.6g A2=%.6g\n",
			bound.A0, bound.A1, bound.A2)
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("calibrate") {
		section("calibrate")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.CompareCalibration(s, 4, 10, 5, 0.01, *seed)
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		if err := res.Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	if selected("ablation") {
		section("ablation")
		s, err := getSetup()
		if err != nil {
			return err
		}
		start := time.Now()
		ks := []int{1, 8}
		skew, err := experiments.LabelSkewAblation(s, []float64{0, 0.5, 0.9}, ks, 10)
		if err != nil {
			return fmt.Errorf("skew ablation: %w", err)
		}
		if err := experiments.RenderSkew(out, skew, ks); err != nil {
			return err
		}
		quant, err := experiments.QuantizationAblation(s)
		if err != nil {
			return fmt.Errorf("quantization ablation: %w", err)
		}
		if err := experiments.RenderQuant(out, quant); err != nil {
			return err
		}
		stability, err := experiments.SeedStability(s, 4, 10, 5)
		if err != nil {
			return fmt.Errorf("seed stability: %w", err)
		}
		fmt.Fprintf(out, "Seed stability — energy to target at (K=4,E=10): %v\n", stability)
		fmt.Fprintf(out, "(%.2fs)\n", time.Since(start).Seconds())
	}

	return nil
}

// runSweep drives the (K, E) sweep subsystem: parse the grid, optionally
// load a resume checkpoint, execute the remaining cells on the worker pool,
// and record the frontier artifacts. Progress goes to stderr so stdout
// stays the rendered frontier alone.
func runSweep(out *os.File, scale experiments.Scale, grid, resumePath, outDir, tracePath string, rounds, workers int, seed uint64) error {
	spec, err := experiments.ParseSweepGrid(grid)
	if err != nil {
		return err
	}
	spec.Seed = seed
	spec.RoundCap = rounds

	opts := experiments.SweepOptions{Workers: workers}
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
	var trace *fl.TraceWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		trace = fl.NewTraceWriter(f)
		opts.RoundObserver = trace
	}
	opts.Observer = experiments.SweepObserverFunc(func(p experiments.SweepProgress) {
		fmt.Fprintf(os.Stderr, "sweep %d/%d: K=%d E=%d rounds=%d acc=%.4f %.1f J (elapsed %s, ETA %s)\n",
			p.Done, p.Total, p.Cell.K, p.Cell.E, p.Cell.Rounds, p.Cell.FinalAccuracy,
			p.Cell.TotalJoules, p.Elapsed.Round(time.Second), p.ETA.Round(time.Second))
	})

	setupStart := time.Now()
	setup, err := experiments.NewSetup(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %v setup ready in %.1fs (%d servers × %d samples), grid %d×%d = %d cells\n",
		scale, time.Since(setupStart).Seconds(), setup.Servers, setup.SamplesPerServer(),
		len(spec.Ks), len(spec.Es), len(spec.Ks)*len(spec.Es))

	res, err := experiments.RunSweep(context.Background(), setup, spec, opts)
	if err != nil {
		return err
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if trace != nil {
		if err := trace.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	frontier, err := experiments.ComputeFrontier(res.Cells)
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
