package experiments

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/mat"
	"eefei/internal/ml"
)

// sharedSetup caches the Quick setup across tests in this package — the
// synthetic dataset generation is pure so sharing is safe.
var sharedSetup *Setup

func quickSetup(t *testing.T) *Setup {
	t.Helper()
	if sharedSetup == nil {
		s, err := NewSetup(Quick)
		if err != nil {
			t.Fatalf("NewSetup: %v", err)
		}
		sharedSetup = s
	}
	return sharedSetup
}

func TestParseScale(t *testing.T) {
	cases := []struct {
		in      string
		want    Scale
		wantErr bool
	}{
		{in: "quick", want: Quick},
		{in: "paper", want: Paper},
		{in: "full", want: Full},
		{in: "huge", wantErr: true},
		{in: "", wantErr: true},
		{in: "Quick", wantErr: true}, // parsing is case-sensitive
		{in: "full ", wantErr: true},
	}
	for _, tc := range cases {
		s, err := ParseScale(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseScale(%q) = %v, want error", tc.in, s)
			} else if !errors.Is(err, ErrExperiment) {
				t.Errorf("ParseScale(%q) error %v does not wrap ErrExperiment", tc.in, err)
			}
			continue
		}
		if err != nil || s != tc.want {
			t.Errorf("ParseScale(%q) = %v, %v, want %v", tc.in, s, err, tc.want)
		}
	}
}

func TestScaleStringRoundTrip(t *testing.T) {
	for _, s := range []Scale{Quick, Paper, Full} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%v.String()) = %v, %v, want identity", s, got, err)
		}
	}
	if Scale(9).String() == "" {
		t.Error("unknown Scale must still render a diagnostic string")
	}
}

func TestTestSplitSamples(t *testing.T) {
	cases := []struct {
		train   int
		want    int
		wantErr bool
	}{
		{train: 60000, want: 10000},
		{train: 2000, want: 333},
		{train: 6, want: 1},
		{train: 5, want: 1}, // 5/6 would floor to 0 — clamped to 1
		{train: 1, want: 1},
		{train: 0, wantErr: true},
		{train: -6, wantErr: true},
	}
	for _, tc := range cases {
		got, err := testSplitSamples(tc.train)
		if tc.wantErr {
			if err == nil {
				t.Errorf("testSplitSamples(%d) = %d, want error", tc.train, got)
			} else if !errors.Is(err, ErrExperiment) {
				t.Errorf("testSplitSamples(%d) error %v does not wrap ErrExperiment", tc.train, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("testSplitSamples(%d) = %d, %v, want %d", tc.train, got, err, tc.want)
		}
	}
}

func TestNewSetupQuick(t *testing.T) {
	s := quickSetup(t)
	if s.Servers != 20 || len(s.Shards) != 20 {
		t.Fatalf("servers = %d, shards = %d, want 20", s.Servers, len(s.Shards))
	}
	if s.SamplesPerServer() != 100 {
		t.Errorf("samples per server = %d, want 100", s.SamplesPerServer())
	}
	if s.Test.Len() == 0 {
		t.Error("test set empty")
	}
}

func TestTable1ReproducesPaperDurations(t *testing.T) {
	res, err := Table1(1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(res.Rows))
	}
	for _, row := range res.Rows {
		rel := math.Abs(row.SimSeconds-row.PaperSeconds) / row.PaperSeconds
		if rel > 0.10 {
			t.Errorf("E=%d n=%d: sim %.4f vs paper %.4f (%.0f%% off)",
				row.Epochs, row.Samples, row.SimSeconds, row.PaperSeconds, 100*rel)
		}
	}
	// The published fits.
	if math.Abs(res.PaperC0-7.79e-5)/7.79e-5 > 0.05 {
		t.Errorf("paper-row c0 fit = %.3g, want ≈7.79e-5", res.PaperC0)
	}
	if math.Abs(res.SimC0-7.79e-5)/7.79e-5 > 0.05 {
		t.Errorf("sim c0 fit = %.3g, want ≈7.79e-5", res.SimC0)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render missing title")
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 5 {
		t.Fatalf("Table II rows = %d, want 5", len(rows))
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatalf("RenderTable2: %v", err)
	}
	for _, want := range []string{"Multinomial Logistic Regression", "784*1", "decay rate 0.99"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestFigure3PhasePattern(t *testing.T) {
	res, err := Figure3(quickSetup(t), 1)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (the Fig. 3 capture)", res.Rounds)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("phases = %d, want 4", len(res.Reports))
	}
	for _, rep := range res.Reports {
		want := res.PaperWatts[rep.Phase]
		if math.Abs(rep.MeanWatts-want) > 0.06 {
			t.Errorf("%v mean = %.3f W, want ≈%.3f W", rep.Phase, rep.MeanWatts, want)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure4ShapesAtReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	setup := quickSetup(t)
	// Reduced sweep (subset of the paper's values) keeps the test fast while
	// still probing both trade-off directions.
	fixedE := []Figure4Series{}
	for _, k := range []int{1, 10} {
		s, err := figure4Series(setup, k, 10)
		if err != nil {
			t.Fatalf("series K=%d: %v", k, err)
		}
		fixedE = append(fixedE, s)
	}
	for _, s := range fixedE {
		if len(s.Loss) == 0 {
			t.Fatalf("%s produced no rounds", s.Label)
		}
		if s.Loss[len(s.Loss)-1] >= s.Loss[0] {
			t.Errorf("%s loss did not fall", s.Label)
		}
		if s.RoundsToTarget <= 0 {
			t.Errorf("%s never hit the target", s.Label)
		}
	}
	// E sweep at fixed K: more local epochs per round ⇒ fewer rounds.
	small, err := figure4Series(setup, 5, 1)
	if err != nil {
		t.Fatalf("series E=1: %v", err)
	}
	large, err := figure4Series(setup, 5, 10)
	if err != nil {
		t.Fatalf("series E=10: %v", err)
	}
	if small.RoundsToTarget > 0 && large.RoundsToTarget > 0 &&
		large.RoundsToTarget >= small.RoundsToTarget {
		t.Errorf("E=10 took %d rounds, E=1 took %d — expected fewer with more local epochs",
			large.RoundsToTarget, small.RoundsToTarget)
	}
}

func TestFStarIsLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	setup := quickSetup(t)
	fStar, err := FStar(setup, 120)
	if err != nil {
		t.Fatalf("FStar: %v", err)
	}
	if fStar <= 0 || fStar > math.Log(10) {
		t.Errorf("F* = %v, want in (0, ln 10)", fStar)
	}
	// A short federated run must sit above F*.
	run, err := setup.RunTraining(5, 5, 1)
	if err != nil {
		t.Fatalf("RunTraining: %v", err)
	}
	if run.FinalLoss <= fStar-1e-6 {
		t.Errorf("federated loss %v beat centralized F* %v", run.FinalLoss, fStar)
	}
}

// concatShardsReference is the copying union the Setup kept before its
// union became a view: every shard's rows stacked in shard order.
func concatShardsReference(shards []*dataset.Dataset) *dataset.Dataset {
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	out := &dataset.Dataset{
		X:       mat.NewDense(total, shards[0].Dim()),
		Labels:  make([]int, 0, total),
		Classes: shards[0].Classes,
	}
	row := 0
	for _, s := range shards {
		for i := 0; i < s.Len(); i++ {
			copy(out.X.Row(row), s.X.Row(i))
			out.Labels = append(out.Labels, s.Labels[i])
			row++
		}
	}
	return out
}

// TestSetupUnionMatchesConcatenatedShards pins the Setup's union view to the
// copy it replaced, row for row, and F(ω*) trained on each to the same bits.
func TestSetupUnionMatchesConcatenatedShards(t *testing.T) {
	setup := quickSetup(t)
	union, err := UnionDataset(setup)
	if err != nil {
		t.Fatalf("UnionDataset: %v", err)
	}
	want := concatShardsReference(setup.Shards)
	if union.Len() != want.Len() || union.Dim() != want.Dim() || union.Classes != want.Classes {
		t.Fatalf("union is %dx%d over %d classes, want %dx%d over %d",
			union.Len(), union.Dim(), union.Classes, want.Len(), want.Dim(), want.Classes)
	}
	for i, v := range want.X.RawData() {
		if math.Float64bits(union.X.RawData()[i]) != math.Float64bits(v) {
			t.Fatalf("union element %d = %v, concatenated shards %v", i, union.X.RawData()[i], v)
		}
	}
	for i, y := range want.Labels {
		if union.Labels[i] != y {
			t.Fatalf("union label %d = %d, concatenated shards %d", i, union.Labels[i], y)
		}
	}

	const epochs = 30
	got, err := FStar(setup, epochs)
	if err != nil {
		t.Fatalf("FStar: %v", err)
	}
	model := ml.NewModel(want.Classes, want.Dim(), ml.Softmax)
	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: setup.LearningRate, Decay: 0.9995, DecayEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sgd.Train(model, want, epochs); err != nil {
		t.Fatal(err)
	}
	ref, err := ml.Loss(model, want)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(ref) {
		t.Errorf("FStar on the union view = %v, on the concatenated copy %v", got, ref)
	}
}

func TestFigure6ReducedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	setup := quickSetup(t)
	res, err := Figure6(setup, SweepConfig{
		Es:      []int{1, 5, 20},
		PinnedK: 2,
	})
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	// Measured energy at the best E must beat E=1: the paper's core claim.
	if res.MeasuredSavings <= 0 {
		t.Errorf("measured savings = %v, want > 0 (E>1 must beat E=1)", res.MeasuredSavings)
	}
	if res.EStarMeasured == 1 {
		t.Error("measured E* = 1 contradicts the paper's trade-off")
	}
	// Theory curve must be finite on the sweep — and on a later, wider sweep
	// of the same setup: the ε floor follows the largest E of each call, not
	// of whichever call calibrated the setup first.
	wide, err := Figure6(setup, SweepConfig{Es: []int{1, 200}, PinnedK: 2})
	if err != nil {
		t.Fatalf("Figure6 to E=200: %v", err)
	}
	for _, p := range append(res.Points, wide.Points...) {
		if math.IsInf(p.TheoryJoules, 0) || math.IsNaN(p.TheoryJoules) {
			t.Errorf("theory energy at E=%d is %v", p.Param, p.TheoryJoules)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("render missing title")
	}
}

func TestFigure5ReducedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	setup := quickSetup(t)
	res, err := Figure5(setup, SweepConfig{
		Ks:      []int{1, 5, 10},
		PinnedE: 10,
	})
	if err != nil {
		t.Fatalf("Figure5: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	// Under IID shards the measured optimum should be small K (the paper
	// finds K*=1); at minimum, K=10 must not win.
	if res.KStarMeasured == 10 {
		t.Errorf("measured K* = 10; expected a small K under IID")
	}
	for _, p := range res.Points {
		if p.EmpiricalRounds <= 0 {
			t.Errorf("K=%d never reached the target", p.Param)
		}
		if p.MeasuredJoules <= 0 {
			t.Errorf("K=%d measured %v J", p.Param, p.MeasuredJoules)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestRoundsToAccuracy(t *testing.T) {
	hist := []struct{ acc float64 }{{0.5}, {0.7}, {0.9}, {0.95}}
	_ = hist
	// Build fl.RoundRecord-compatible history via the real type.
	res, err := quickSetup(t).RunTraining(2, 2, 1)
	if err != nil {
		t.Fatalf("RunTraining: %v", err)
	}
	if got := RoundsToAccuracy(res.History, 2.0); got != -1 {
		t.Errorf("unreachable target = %d, want -1", got)
	}
	if got := RoundsToAccuracy(res.History, -1); got != 1 {
		t.Errorf("trivial target = %d, want 1", got)
	}
}

func TestSparkHelpers(t *testing.T) {
	if s := sparkSeries(nil, false); s != "(empty)" {
		t.Errorf("empty series = %q", s)
	}
	if s := sparkSeries([]float64{1, 1, 1}, false); len(s) == 0 {
		t.Error("constant series must render")
	}
	if g := sparkGlyph(0); g == "" {
		t.Error("below-range glyph empty")
	}
	if g := sparkGlyph(10); g == "" {
		t.Error("above-range glyph empty")
	}
}

func TestLedgerPhasesPresentInRun(t *testing.T) {
	setup := quickSetup(t)
	res, err := setup.RunTraining(3, 2, 1)
	if err != nil {
		t.Fatalf("RunTraining: %v", err)
	}
	for _, p := range energy.Phases {
		if res.Ledger.Phase(p) <= 0 {
			t.Errorf("phase %v has no energy", p)
		}
	}
}

func TestPaperTheoryCurves(t *testing.T) {
	res, err := PaperTheoryCurves()
	if err != nil {
		t.Fatalf("PaperTheoryCurves: %v", err)
	}
	if len(res.KCurve) != 20 {
		t.Fatalf("K curve has %d points, want 20", len(res.KCurve))
	}
	// Fig. 5 shape: monotone increasing in K for the IID calibration.
	for i := 1; i < len(res.KCurve); i++ {
		if res.KCurve[i].TheoryJoules <= res.KCurve[i-1].TheoryJoules {
			t.Fatalf("K curve not increasing at K=%d", res.KCurve[i].Param)
		}
	}
	// Fig. 6 shape: U with an interior minimum near E*=43.
	minE, minJ := 0, math.Inf(1)
	for _, p := range res.ECurve {
		if p.TheoryJoules < minJ {
			minE, minJ = p.Param, p.TheoryJoules
		}
	}
	first, last := res.ECurve[0], res.ECurve[len(res.ECurve)-1]
	if !(minJ < first.TheoryJoules && minJ < last.TheoryJoules) {
		t.Error("E curve is not U-shaped")
	}
	if minE < 20 || minE > 80 {
		t.Errorf("E-curve minimum at %d, want in [20,80]", minE)
	}
	if s := res.Plan.Savings(); math.Abs(s-0.498) > 0.03 {
		t.Errorf("savings = %v, want ≈0.498", s)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Fig. 6 theory") {
		t.Error("render missing E curve")
	}
}

func TestSpacedInts(t *testing.T) {
	xs := spacedInts(1, 100, 10)
	if xs[0] != 1 {
		t.Errorf("first = %d, want 1", xs[0])
	}
	seen := map[int]bool{}
	prev := 0
	for _, v := range xs {
		if v < 1 || v > 100 || seen[v] || v <= prev {
			t.Fatalf("bad spacing %v", xs)
		}
		seen[v] = true
		prev = v
	}
	if got := spacedInts(5, 3, 4); len(got) == 0 || got[0] != 5 {
		t.Errorf("degenerate range = %v", got)
	}
}

func TestFigure4FullHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig.-4 sweep")
	}
	setup := quickSetup(t)
	res, err := Figure4(setup)
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(res.FixedE) != len(Figure4Ks) || len(res.FixedK) != len(Figure4Es) {
		t.Fatalf("series counts = %d/%d, want %d/%d",
			len(res.FixedE), len(res.FixedK), len(Figure4Ks), len(Figure4Es))
	}
	// Fig.-4b behaviour: T@target non-increasing in K (allowing equality).
	prev := 1 << 30
	for _, s := range res.FixedE {
		if s.RoundsToTarget <= 0 {
			t.Fatalf("%s never reached the target", s.Label)
		}
		if s.RoundsToTarget > prev {
			t.Errorf("%s took %d rounds, more than the smaller-K series (%d)",
				s.Label, s.RoundsToTarget, prev)
		}
		prev = s.RoundsToTarget
	}
	// Fig.-4d behaviour: E·T at some interior E beats both extremes.
	first := res.FixedK[0].LocalGradientRounds
	last := res.FixedK[len(res.FixedK)-1].LocalGradientRounds
	bestInterior := 1 << 30
	for _, s := range res.FixedK[1 : len(res.FixedK)-1] {
		if s.LocalGradientRounds > 0 && s.LocalGradientRounds < bestInterior {
			bestInterior = s.LocalGradientRounds
		}
	}
	if !(bestInterior < first && bestInterior < last) {
		t.Errorf("E·T not U-shaped: ends %d/%d, best interior %d", first, last, bestInterior)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 4a/4b") {
		t.Error("render missing title")
	}
}
