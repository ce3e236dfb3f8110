// Command feisim runs one complete simulated FEI training with full energy
// accounting — the software twin of switching on the paper's 20-Pi testbed:
//
//	feisim                            # defaults: quick scale, K=10, E=40
//	feisim -k 1 -e 43 -target 0.88    # run the planner's optimal config
//	feisim -scale paper -k 10 -e 40   # prototype-scale dimensions (slow)
//	feisim -collect                   # pay IoT data-collection every round
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"

	"eefei/internal/energy"
	"eefei/internal/experiments"
	"eefei/internal/fl"
	"eefei/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "feisim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("feisim", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "experiment scale: quick|paper")
		k         = fs.Int("k", 10, "edge servers per round (K)")
		e         = fs.Int("e", 40, "local epochs per round (E)")
		target    = fs.Float64("target", 0, "test-accuracy stop target (0 = scale default)")
		maxRounds = fs.Int("max-rounds", 0, "round cap (0 = scale default)")
		collect   = fs.Bool("collect", false, "pay IoT data-collection energy each round")
		seed      = fs.Uint64("seed", 1, "run seed")
		trace     = fs.String("trace", "", "write per-round phase timings as JSON lines to this file")
		calibrate = fs.Bool("calibrate", false, "accumulate a measured per-phase energy ledger from round timings and report drift vs the analytic device model")
		traceMem  = fs.Bool("trace-mem", false, "sample runtime.MemStats per round into the trace (requires -trace; slows rounds)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceMem && *trace == "" {
		return fmt.Errorf("-trace-mem requires -trace")
	}
	if *pprofAddr != "" {
		// Live profiling of a long training run: `go tool pprof
		// http://<addr>/debug/pprof/profile` or /debug/pprof/allocs.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "feisim: pprof:", err)
			}
		}()
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	setup, err := experiments.NewSetup(scale)
	if err != nil {
		return err
	}
	if *target <= 0 {
		*target = setup.AccuracyTarget
	}
	if *maxRounds <= 0 {
		*maxRounds = setup.RoundCap
	}
	cfg := sim.DefaultConfig()
	cfg.Servers = setup.Servers
	cfg.Preloaded = !*collect
	cfg.Seed = *seed
	cfg.FL = fl.Config{
		ClientsPerRound: *k,
		LocalEpochs:     *e,
		LearningRate:    setup.LearningRate,
		Decay:           setup.Decay,
		Seed:            *seed,
	}

	system, err := sim.New(cfg, setup.Shards, setup.Test)
	if err != nil {
		return err
	}
	of := observeFlags{trace: *trace, traceMem: *traceMem, calibrate: *calibrate}
	obs, err := of.attach(system.Engine(), cfg.Device.Power, *e, setup.SamplesPerServer())
	if err != nil {
		return err
	}
	defer obs.close()
	fmt.Printf("feisim: %v scale, N=%d servers, K=%d, E=%d, n̄=%d, target %.2f\n",
		scale, setup.Servers, *k, *e, setup.SamplesPerServer(), *target)

	res, err := system.Run(fl.AnyOf(fl.TargetAccuracy(*target), fl.MaxRounds(*maxRounds)))
	if err != nil {
		return err
	}
	if err := obs.reportTrace(); err != nil {
		return err
	}

	hit := experiments.RoundsToAccuracy(res.History, *target)
	fmt.Printf("\nrounds run        %d (target hit at %d)\n", len(res.History), hit)
	fmt.Printf("final loss        %.4f\n", res.FinalLoss)
	fmt.Printf("final accuracy    %.4f\n", res.FinalAccuracy)
	fmt.Printf("virtual wallclock %v\n", res.WallClock)
	fmt.Printf("\nenergy ledger:\n")
	for _, p := range energy.Phases {
		fmt.Printf("  %-9s %10.2f J\n", p, res.Ledger.Phase(p))
	}
	if res.CollectionJoules > 0 {
		fmt.Printf("  %-9s %10.2f J\n", "collect", res.CollectionJoules)
	}
	fmt.Printf("  %-9s %10.2f J\n", "total", res.TotalJoules())
	if n := len(res.History); n > 0 {
		fmt.Printf("  per round %10.2f J\n", res.TotalJoules()/float64(n))
	}
	if obs.cal != nil {
		printCalibration(obs.cal, cfg.Device.Time)
	}
	return nil
}

// observeFlags are the -trace, -trace-mem and -calibrate flags.
type observeFlags struct {
	trace     string
	traceMem  bool
	calibrate bool
}

// observers is what attach wired onto a run's engine.
type observers struct {
	file *os.File
	tw   *fl.TraceWriter
	cal  *energy.Calibrator
}

// attach wires the flags onto eng: a JSONL trace writer and/or an energy
// calibrator for rounds of e epochs over samples rows, teed into the
// engine's one observer slot. The caller defers close.
func (of observeFlags) attach(eng *fl.Engine, power energy.PowerModel, e, samples int) (*observers, error) {
	o := &observers{}
	var sinks []fl.RoundObserver
	if of.trace != "" {
		f, err := os.Create(of.trace)
		if err != nil {
			return nil, fmt.Errorf("create trace: %w", err)
		}
		o.file, o.tw = f, fl.NewTraceWriter(f)
		sinks = append(sinks, o.tw)
		eng.SetMemSampling(of.traceMem)
	}
	if of.calibrate {
		cal, err := energy.NewCalibrator(power, e, samples)
		if err != nil {
			o.close()
			return nil, err
		}
		o.cal = cal
		sinks = append(sinks, cal)
	}
	eng.SetRoundObserver(fl.Tee(sinks...))
	return o, nil
}

// close releases the trace file on paths that never reached reportTrace;
// after it, the second Close is a harmless error.
func (o *observers) close() {
	if o.file != nil {
		o.file.Close()
	}
}

// reportTrace surfaces the trace writer's sticky error and the file's close
// error, then prints how many rounds were written.
func (o *observers) reportTrace() error {
	if o.tw == nil {
		return nil
	}
	if err := o.tw.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := o.file.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Printf("trace: %d rounds written to %s\n", o.tw.Lines(), o.file.Name())
	return nil
}

// printCalibration reports the measured-energy ledger a Calibrator
// accumulated from real round timings, and the per-phase drift of those
// measurements against the analytic TimeModel the run was planned with. The
// measured ledger prices host wall-clock, so its joules are not comparable to
// the virtual-testbed ledger above — the drift column is the actionable part.
func printCalibration(cal *energy.Calibrator, tm energy.TimeModel) {
	led := cal.Ledger()
	fmt.Printf("\nmeasured energy (calibrated from %d observed rounds):\n", cal.Rounds())
	for _, p := range energy.Phases {
		fmt.Printf("  %-9s %10.4f J over %v\n", p, led.Phase(p), cal.PhaseWallClock(p))
	}
	fmt.Printf("  %-9s %10.4f J\n", "total", led.Total())
	fmt.Printf("\nmeasured vs analytic time model:\n")
	for _, d := range cal.Drift(tm) {
		fmt.Printf("  %-9s measured %12v  modeled %12v  drift %+7.1f%%\n",
			d.Phase, d.Measured, d.Modeled, d.Pct)
	}
}
