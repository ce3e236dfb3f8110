// Benchmarks reproducing every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index), the design-choice ablations
// called out in DESIGN.md §5, and the substrate microbenchmarks that have no
// twin beside the code they time (the mat/ml/fl/flnet/fldgram kernels and
// rounds are benchmarked in their own packages and measured by bench/).
//
// The per-figure benchmarks wrap the same harnesses cmd/experiments runs;
// one benchmark "op" regenerates the whole table/figure at quick scale and
// reports the headline quantity via b.ReportMetric, so `go test -bench=.`
// both exercises and documents the reproduction.
package eefei

import (
	"io"
	"sync"
	"testing"

	"eefei/internal/core"
	"eefei/internal/energy"
	"eefei/internal/experiments"
	"eefei/internal/fl"
	"eefei/internal/mat"
	"eefei/internal/ml"
	"eefei/internal/optim"
)

// benchSetup lazily builds the shared quick-scale experiment substrate.
var (
	benchSetupOnce sync.Once
	benchSetupVal  *experiments.Setup
	benchSetupErr  error
)

func benchSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchSetupOnce.Do(func() {
		benchSetupVal, benchSetupErr = experiments.NewSetup(experiments.Quick)
	})
	if benchSetupErr != nil {
		b.Fatalf("setup: %v", benchSetupErr)
	}
	return benchSetupVal
}

// --- one benchmark per table / figure ----------------------------------------

func BenchmarkTable1StepDuration(b *testing.B) {
	var lastC0 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(uint64(i + 1))
		if err != nil {
			b.Fatalf("Table1: %v", err)
		}
		lastC0 = res.SimC0
	}
	b.ReportMetric(lastC0*1e5, "c0e5(paper=7.79)")
}

func BenchmarkTable2Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if err := experiments.RenderTable2(io.Discard, rows); err != nil {
			b.Fatalf("RenderTable2: %v", err)
		}
	}
}

func BenchmarkFigure3PowerTrace(b *testing.B) {
	setup := benchSetup(b)
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(setup, uint64(i+1))
		if err != nil {
			b.Fatalf("Figure3: %v", err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds(paper=2)")
}

// freshSetup builds a quick-scale setup with the timer stopped: the figures
// cache their training runs on the setup, so each iteration needs its own
// or it would time a cache hit.
func freshSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	setup, err := experiments.NewSetup(experiments.Quick)
	if err != nil {
		b.Fatalf("setup: %v", err)
	}
	return setup
}

func BenchmarkFigure4(b *testing.B) {
	var eT int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(freshSetup(b), 1)
		if err != nil {
			b.Fatalf("Figure4: %v", err)
		}
		// E·T at E=20 against the ends characterizes the Fig.-4d U-shape
		// (paper: 5600 / 3600 / 6000).
		eT = res.FixedK[1].LocalGradientRounds
	}
	b.ReportMetric(float64(eT), "E·T@E=20")
}

func BenchmarkFigure5EnergyVsK(b *testing.B) {
	var kStar int
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(freshSetup(b), 1)
		if err != nil {
			b.Fatalf("Figure5: %v", err)
		}
		kStar = res.KStarTheory
	}
	b.ReportMetric(float64(kStar), "K*(paper=1)")
}

func BenchmarkFigure6EnergyVsE(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(freshSetup(b), 1)
		if err != nil {
			b.Fatalf("Figure6: %v", err)
		}
		savings = res.MeasuredSavings
	}
	b.ReportMetric(100*savings, "%savings(paper=49.8@paper-scale)")
}

// --- design-choice ablations (DESIGN.md §5) -----------------------------------

// BenchmarkAblationGridSearch is the brute-force integer baseline ACS is
// compared against.
func BenchmarkAblationGridSearch(b *testing.B) {
	p := core.DefaultProblem()
	eMax := int(p.EMax(1)) + 1
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveGrid(p, eMax); err != nil {
			b.Fatalf("SolveGrid: %v", err)
		}
	}
}

// BenchmarkAblationActivation compares the paper's Table-II sigmoid head
// against the softmax head on one federated round.
func BenchmarkAblationActivation(b *testing.B) {
	setup := benchSetup(b)
	for _, act := range []ml.Activation{ml.Softmax, ml.Sigmoid} {
		b.Run(act.String(), func(b *testing.B) {
			cfg := fl.Config{
				ClientsPerRound: 5, LocalEpochs: 5, LearningRate: 0.1,
				Activation: act, Seed: 1,
			}
			for i := 0; i < b.N; i++ {
				engine, err := fl.NewEngine(cfg, setup.Shards)
				if err != nil {
					b.Fatalf("NewEngine: %v", err)
				}
				if _, err := engine.Round(); err != nil {
					b.Fatalf("Round: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationEmpiricalT compares the bound's T* with an actual
// trained-to-target round count at the planner's optimum.
func BenchmarkAblationEmpiricalT(b *testing.B) {
	setup := benchSetup(b)
	var tEmp int
	for i := 0; i < b.N; i++ {
		res, err := setup.RunTraining(1, 20, uint64(i+1), 0, nil)
		if err != nil {
			b.Fatalf("RunTraining: %v", err)
		}
		tEmp = experiments.RoundsToAccuracy(res.History, setup.AccuracyTarget)
	}
	b.ReportMetric(float64(tEmp), "T_emp(K=1,E=20)")
}

// --- substrate microbenchmarks -------------------------------------------------

func BenchmarkMatDot784(b *testing.B) {
	rng := mat.NewRNG(1)
	x := make([]float64, 784)
	y := make([]float64, 784)
	for i := range x {
		x[i], y[i] = rng.Norm(), rng.Norm()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += mat.Dot(x, y)
	}
	_ = sink
}

func BenchmarkTraceRecordAndIntegrate(b *testing.B) {
	pm := energy.DefaultPiPowerModel()
	tm := energy.DefaultPiTimeModel()
	meter, err := energy.NewMeter(pm, 1000, 1)
	if err != nil {
		b.Fatalf("NewMeter: %v", err)
	}
	sched := energy.RoundSchedule(tm, 40, 2000, 2)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		trace, err := meter.Record(sched)
		if err != nil {
			b.Fatalf("Record: %v", err)
		}
		sink += trace.Energy()
	}
	_ = sink
}

func BenchmarkTraceSegmentation(b *testing.B) {
	pm := energy.DefaultPiPowerModel()
	tm := energy.DefaultPiTimeModel()
	meter, err := energy.NewMeter(pm, 1000, 1)
	if err != nil {
		b.Fatalf("NewMeter: %v", err)
	}
	trace, err := meter.Record(energy.RoundSchedule(tm, 40, 2000, 2))
	if err != nil {
		b.Fatalf("Record: %v", err)
	}
	seg, err := energy.NewSegmenter(pm, 10)
	if err != nil {
		b.Fatalf("NewSegmenter: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seg.Segment(trace); err != nil {
			b.Fatalf("Segment: %v", err)
		}
	}
}

func BenchmarkGoldenSection(b *testing.B) {
	f := func(x float64) float64 { return (x - 3.7) * (x - 3.7) }
	for i := 0; i < b.N; i++ {
		if _, err := optim.GoldenSection(f, -100, 100, 1e-9); err != nil {
			b.Fatalf("GoldenSection: %v", err)
		}
	}
}

// --- extension benches ----------------------------------------------------------

func BenchmarkQuantizeModel8(b *testing.B) {
	m := ml.NewModel(10, 784, ml.Softmax)
	rng := mat.NewRNG(3)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = rng.Norm()
	}
	var (
		data []byte
		back ml.Model
		err  error
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err = ml.AppendQuantized(data[:0], m, ml.Quant8)
		if err != nil {
			b.Fatalf("AppendQuantized: %v", err)
		}
		if err := back.DequantizeInto(data); err != nil {
			b.Fatalf("DequantizeInto: %v", err)
		}
	}
}

func BenchmarkSensitivityAnalysis(b *testing.B) {
	p := core.DefaultProblem()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sensitivity(p, 0.1); err != nil {
			b.Fatalf("Sensitivity: %v", err)
		}
	}
}

func BenchmarkParetoFrontier(b *testing.B) {
	p := core.DefaultProblem()
	tm := energy.DefaultPiTimeModel()
	for i := 0; i < b.N; i++ {
		if _, err := core.ParetoFrontier(p, tm, 3000, 500); err != nil {
			b.Fatalf("ParetoFrontier: %v", err)
		}
	}
}
