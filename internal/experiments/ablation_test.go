package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestLabelSkewAblationShiftsOptimalK(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	setup := quickSetup(t)
	ks := []int{1, 8}
	points, err := LabelSkewAblation(setup, []float64{0, 0.9}, ks, 10)
	if err != nil {
		t.Fatalf("LabelSkewAblation: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	iid, skewed := points[0], points[1]
	// Under heavy skew, single-client rounds see biased gradients: K=1 must
	// need several times the IID round count (or miss the target entirely).
	iidT, skewT := iid.RoundsByK[1], skewed.RoundsByK[1]
	if skewT > 0 && iidT > 0 && skewT < 2*iidT {
		t.Errorf("skewed K=1 needed %d rounds vs IID %d — expected skew to hurt badly", skewT, iidT)
	}
	// Averaging more clients per round must mitigate the skew: K=8 reaches
	// the target in fewer rounds than K=1 does.
	if k8 := skewed.RoundsByK[8]; skewT > 0 && k8 > 0 && k8 >= skewT {
		t.Errorf("under alpha=0.9, K=8 took %d rounds vs K=1's %d — averaging did not help", k8, skewT)
	}
	var buf bytes.Buffer
	if err := RenderSkew(&buf, points, ks); err != nil {
		t.Fatalf("RenderSkew: %v", err)
	}
	if !strings.Contains(buf.String(), "label skew") {
		t.Error("render missing title")
	}
}

func TestQuantizationAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	setup := quickSetup(t)
	points, err := QuantizationAblation(setup)
	if err != nil {
		t.Fatalf("QuantizationAblation: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 (float64, 16-bit, 8-bit)", len(points))
	}
	full, q16, q8 := points[0], points[1], points[2]
	if !(q8.Bytes < q16.Bytes && q16.Bytes < full.Bytes) {
		t.Errorf("byte ordering wrong: %d, %d, %d", full.Bytes, q16.Bytes, q8.Bytes)
	}
	if !(q8.UploadJoules < q16.UploadJoules && q16.UploadJoules < full.UploadJoules) {
		t.Error("upload energy must shrink with the payload")
	}
	// ~8x compression at 8 bits.
	if ratio := float64(full.Bytes) / float64(q8.Bytes); ratio < 6 {
		t.Errorf("8-bit compression ratio = %.1f, want > 6", ratio)
	}
	// Accuracy must survive quantization nearly unchanged.
	if q8.Accuracy < full.Accuracy-0.02 {
		t.Errorf("8-bit accuracy %.4f dropped more than 2%% below %.4f", q8.Accuracy, full.Accuracy)
	}
	var buf bytes.Buffer
	if err := RenderQuant(&buf, points); err != nil {
		t.Fatalf("RenderQuant: %v", err)
	}
	if !strings.Contains(buf.String(), "quantized") {
		t.Error("render missing title")
	}
}

func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("training repetitions")
	}
	setup := quickSetup(t)
	sum, err := SeedStability(setup, 4, 10, 3)
	if err != nil {
		t.Fatalf("SeedStability: %v", err)
	}
	if sum.N != 3 || sum.Mean <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	// Seed noise should be moderate relative to the mean at this config.
	if sum.StdDev > sum.Mean {
		t.Errorf("energy noise (σ=%v) exceeds the mean (%v)", sum.StdDev, sum.Mean)
	}
}

func TestCSVWriters(t *testing.T) {
	setup := quickSetup(t)

	t1, err := Table1(1)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, t1); err != nil {
		t.Fatalf("WriteTable1CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 13 { // header + 12 rows
		t.Errorf("table1 csv lines = %d, want 13", len(lines))
	}
	if !strings.HasPrefix(lines[0], "epochs,samples") {
		t.Errorf("table1 csv header = %q", lines[0])
	}

	f3, err := Figure3(setup, 1)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	buf.Reset()
	if err := WriteTraceCSV(&buf, f3); err != nil {
		t.Fatalf("WriteTraceCSV: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(f3.Trace.Samples)+1 {
		t.Errorf("trace csv lines = %d, want %d", got, len(f3.Trace.Samples)+1)
	}

	// Energy-curve CSV from synthetic points.
	buf.Reset()
	pts := []EnergyCurvePoint{{Param: 1, MeasuredJoules: 2.5, TheoryJoules: 1.25, EmpiricalRounds: 7, TheoryRounds: 6.5, FinalAccuracy: 0.9}}
	if err := WriteEnergyCurveCSV(&buf, "K", pts); err != nil {
		t.Fatalf("WriteEnergyCurveCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "K,measured_joules") || !strings.Contains(buf.String(), "2.5") {
		t.Errorf("energy csv = %q", buf.String())
	}
}

func TestFigure4CSV(t *testing.T) {
	r := &Figure4Result{
		FixedE: []Figure4Series{{Label: "K=1,E=40", K: 1, E: 40, Loss: []float64{2, 1}, Accuracy: []float64{0.5, 0.8}}},
	}
	var buf bytes.Buffer
	if err := WriteFigure4CSV(&buf, r); err != nil {
		t.Fatalf("WriteFigure4CSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Errorf("fig4 csv lines = %d, want 3", len(lines))
	}
	if !strings.Contains(lines[1], "\"K=1,E=40\"") && !strings.Contains(lines[1], "K=1,E=40") {
		t.Errorf("fig4 csv row = %q", lines[1])
	}
}
