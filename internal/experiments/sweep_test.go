package experiments

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"eefei/internal/fl"
)

// -update regenerates the checked-in sweep golden files:
//
//	go test ./internal/experiments -run SweepGolden -update
var updateGolden = flag.Bool("update", false, "rewrite sweep golden files")

// goldenSweepSpec is the checked-in 3×3 quick-scale grid. RoundCap keeps
// each cell at exactly 4 rounds so the golden run stays fast under -race.
func goldenSweepSpec() SweepSpec {
	return SweepSpec{Ks: []int{1, 2, 4}, Es: []int{1, 2, 5}, Seed: 7, RoundCap: 4}
}

// runGoldenSweep executes the golden spec and returns (checkpoint JSONL,
// frontier CSV) bytes.
func runGoldenSweep(t *testing.T, resume []CellResult) ([]byte, []byte, []CellResult) {
	t.Helper()
	var ckpt bytes.Buffer
	cells, err := RunSweep(quickSetup(t), goldenSweepSpec(), SweepOptions{
		Checkpoint: &ckpt,
		Resume:     resume,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	frontier, err := ComputeFrontier(cells)
	if err != nil {
		t.Fatalf("ComputeFrontier: %v", err)
	}
	var csv bytes.Buffer
	if err := WriteFrontierCSV(&csv, frontier); err != nil {
		t.Fatalf("WriteFrontierCSV: %v", err)
	}
	return ckpt.Bytes(), csv.Bytes(), cells
}

// readGolden returns the checked-in 3×3 checkpoint and frontier CSV.
func readGolden(t *testing.T) (ckpt, csv []byte) {
	t.Helper()
	ckpt, err := os.ReadFile(filepath.Join("testdata", "sweep_quick_3x3.golden.jsonl"))
	if err != nil {
		t.Fatalf("golden checkpoint: %v (regenerate with -update)", err)
	}
	csv, err = os.ReadFile(filepath.Join("testdata", "frontier_quick_3x3.golden.csv"))
	if err != nil {
		t.Fatalf("golden frontier: %v (regenerate with -update)", err)
	}
	return ckpt, csv
}

func TestSweepGolden(t *testing.T) {
	ckpt, csv, cells := runGoldenSweep(t, nil)
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(cells))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "sweep_quick_3x3.golden.jsonl"), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "frontier_quick_3x3.golden.csv"), csv, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantCkpt, wantCSV := readGolden(t)
	if !bytes.Equal(ckpt, wantCkpt) {
		t.Errorf("checkpoint differs from golden\ngot:\n%s\nwant:\n%s", ckpt, wantCkpt)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Errorf("frontier csv differs from golden\ngot:\n%s\nwant:\n%s", csv, wantCSV)
	}
	// The golden checkpoint must round-trip through the reader.
	read, err := ReadSweepCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatalf("ReadSweepCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(read, cells) {
		t.Error("checkpoint round-trip lost information")
	}
}

// TestSweepPoolSizeBitIdentical pins the golden at every pool size: the
// sweep trains across GOMAXPROCS, and 1, 2 and 4 give the same bytes.
func TestSweepPoolSizeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated sweep runs")
	}
	wantCkpt, wantCSV := readGolden(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		ckpt, csv, _ := runGoldenSweep(t, nil)
		if !bytes.Equal(ckpt, wantCkpt) {
			t.Errorf("GOMAXPROCS=%d checkpoint differs from golden", procs)
		}
		if !bytes.Equal(csv, wantCSV) {
			t.Errorf("GOMAXPROCS=%d frontier differs from golden", procs)
		}
	}
}

// failingWriter accepts n writes, then fails every later one.
type failingWriter struct {
	bytes.Buffer
	n int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDiskFull
	}
	w.n--
	return w.Buffer.Write(p)
}

// TestSweepResumeBitIdentical breaks the checkpoint sink on its 5th write and
// asserts the sweep stops with the sink's error after exactly 4 grid-order
// lines, and that resuming from them reproduces the golden byte-for-byte.
func TestSweepResumeBitIdentical(t *testing.T) {
	fullCkpt, fullCSV := readGolden(t)

	partial := &failingWriter{n: 4}
	_, err := RunSweep(quickSetup(t), goldenSweepSpec(), SweepOptions{Checkpoint: partial})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("interrupted sweep error = %v, want one wrapping %v", err, errDiskFull)
	}
	wantPrefix := bytes.Join(bytes.SplitAfterN(fullCkpt, []byte("\n"), 5)[:4], nil)
	if !bytes.Equal(partial.Bytes(), wantPrefix) {
		t.Fatalf("interrupted checkpoint is not the golden's first 4 lines\ngot:\n%s\nwant:\n%s",
			partial.Bytes(), wantPrefix)
	}

	// Resume from the partial checkpoint: only the 5 missing cells rerun,
	// and the artifacts match the uninterrupted run exactly.
	resume, err := ReadSweepCheckpoint(bytes.NewReader(partial.Bytes()))
	if err != nil {
		t.Fatalf("ReadSweepCheckpoint: %v", err)
	}
	if len(resume) != 4 {
		t.Fatalf("resume cells = %d, want 4", len(resume))
	}
	ckpt, csv, _ := runGoldenSweep(t, resume)
	if !bytes.Equal(ckpt, fullCkpt) {
		t.Errorf("resumed checkpoint differs from uninterrupted run\ngot:\n%s\nwant:\n%s", ckpt, fullCkpt)
	}
	if !bytes.Equal(csv, fullCSV) {
		t.Error("resumed frontier differs from uninterrupted run")
	}
}

func TestSweepResumeEveryPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("9 resumed sweeps")
	}
	fullCkpt, _, full := runGoldenSweep(t, nil)
	for n := 0; n <= len(full); n++ {
		ckpt, _, cells := runGoldenSweep(t, full[:n])
		if !bytes.Equal(ckpt, fullCkpt) {
			t.Errorf("resume from prefix %d: checkpoint differs", n)
		}
		if !reflect.DeepEqual(cells, full) {
			t.Errorf("resume from prefix %d: cells differ", n)
		}
	}
}

func TestSweepResumeMismatchRejected(t *testing.T) {
	_, _, full := runGoldenSweep(t, nil)
	bad := full[:2]
	bad[1].Seed++
	_, err := RunSweep(quickSetup(t), goldenSweepSpec(), SweepOptions{Resume: bad})
	if !errors.Is(err, ErrExperiment) {
		t.Errorf("mismatched resume error = %v, want ErrExperiment", err)
	}
	tooMany := make([]CellResult, 10)
	_, err = RunSweep(quickSetup(t), goldenSweepSpec(), SweepOptions{Resume: tooMany})
	if !errors.Is(err, ErrExperiment) {
		t.Errorf("oversized resume error = %v, want ErrExperiment", err)
	}
}

func TestSweepObserverProgress(t *testing.T) {
	var dones []int
	spec := SweepSpec{Ks: []int{1, 2}, Es: []int{1}, Seed: 3, RoundCap: 2}
	cells, err := RunSweep(quickSetup(t), spec, SweepOptions{
		Progress: func(done int, c CellResult) {
			dones = append(dones, done)
			if c.Index != done-1 {
				t.Errorf("progress %d carried cell %d", done, c.Index)
			}
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if !reflect.DeepEqual(dones, []int{1, 2}) {
		t.Errorf("progress saw dones=%v, want [1 2]", dones)
	}
}

// TestSweepRoundObserverThreaded pins the trace: one record per round of
// every cell, so Σ Rounds lines.
func TestSweepRoundObserverThreaded(t *testing.T) {
	var trace bytes.Buffer
	spec := SweepSpec{Ks: []int{1, 2}, Es: []int{1}, Seed: 3, RoundCap: 3}
	cells, err := RunSweep(quickSetup(t), spec, SweepOptions{Trace: &trace})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	want := 0
	for _, c := range cells {
		want += c.Rounds
	}
	if got := bytes.Count(trace.Bytes(), []byte("\n")); got != want {
		t.Errorf("trace has %d lines, cells ran %d rounds", got, want)
	}
}

func TestParseSweepGrid(t *testing.T) {
	tests := []struct {
		grid    string
		wantKs  []int
		wantEs  []int
		wantErr bool
	}{
		{grid: "K=1,5,10,50,100;E=1,5,20", wantKs: []int{1, 5, 10, 50, 100}, wantEs: []int{1, 5, 20}},
		{grid: "E=1;K=2", wantKs: []int{2}, wantEs: []int{1}},
		{grid: " K = 1 , 2 ; E = 3 ", wantKs: []int{1, 2}, wantEs: []int{3}},
		{grid: "K=1..4;E=2", wantKs: []int{1, 2, 3, 4}, wantEs: []int{2}},
		{grid: "K=1..2,5;E=1", wantKs: []int{1, 2, 5}, wantEs: []int{1}},
		{grid: "", wantErr: true},
		{grid: "K=1,2", wantErr: true},                      // missing E
		{grid: "E=1,2", wantErr: true},                      // missing K
		{grid: "K=1;E=1;K=2", wantErr: true},                // duplicate axis
		{grid: "K=1,1;E=2", wantErr: true},                  // duplicate value
		{grid: "K=1..3,2;E=1", wantErr: true},               // range overlaps literal
		{grid: "K=0;E=1", wantErr: true},                    // below range
		{grid: "K=-3;E=1", wantErr: true},                   // negative
		{grid: "K=2..1;E=1", wantErr: true},                 // descending range
		{grid: "K=1..99999;E=1", wantErr: true},             // axis cap
		{grid: "K=x;E=1", wantErr: true},                    // not a number
		{grid: "K=1;;E=2", wantErr: true},                   // empty section
		{grid: "K=1;E=", wantErr: true},                     // empty axis
		{grid: "Q=1;E=1", wantErr: true},                    // unknown axis
		{grid: "K=99999999999999999999;E=1", wantErr: true}, // overflow
	}
	for _, tc := range tests {
		spec, err := ParseSweepGrid(tc.grid)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSweepGrid(%q) succeeded, want error", tc.grid)
			} else if !errors.Is(err, ErrExperiment) {
				t.Errorf("ParseSweepGrid(%q) error %v does not wrap ErrExperiment", tc.grid, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSweepGrid(%q): %v", tc.grid, err)
			continue
		}
		if !reflect.DeepEqual(spec.Ks, tc.wantKs) || !reflect.DeepEqual(spec.Es, tc.wantEs) {
			t.Errorf("ParseSweepGrid(%q) = K%v E%v, want K%v E%v",
				tc.grid, spec.Ks, spec.Es, tc.wantKs, tc.wantEs)
		}
	}
}

func TestSweepSpecValidate(t *testing.T) {
	ok := SweepSpec{Ks: []int{1, 20}, Es: []int{1, 100}}
	if err := ok.Validate(20); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	tests := []struct {
		name    string
		spec    SweepSpec
		servers int
	}{
		{"empty ks", SweepSpec{Es: []int{1}}, 20},
		{"empty es", SweepSpec{Ks: []int{1}}, 20},
		{"k above servers", SweepSpec{Ks: []int{21}, Es: []int{1}}, 20},
		{"k zero", SweepSpec{Ks: []int{0}, Es: []int{1}}, 20},
		{"dup k", SweepSpec{Ks: []int{3, 3}, Es: []int{1}}, 20},
		{"e zero", SweepSpec{Ks: []int{1}, Es: []int{0}}, 20},
		{"e huge", SweepSpec{Ks: []int{1}, Es: []int{maxSweepEpochs + 1}}, 20},
		{"dup e", SweepSpec{Ks: []int{1}, Es: []int{2, 2}}, 20},
		{"negative cap", SweepSpec{Ks: []int{1}, Es: []int{1}, RoundCap: -1}, 20},
		{"no servers", SweepSpec{Ks: []int{1}, Es: []int{1}}, 0},
	}
	for _, tc := range tests {
		if err := tc.spec.Validate(tc.servers); !errors.Is(err, ErrExperiment) {
			t.Errorf("%s: error = %v, want ErrExperiment", tc.name, err)
		}
	}
}

func TestSweepCells(t *testing.T) {
	spec := SweepSpec{Ks: []int{2, 1}, Es: []int{5, 3}, Seed: 9}
	cells := spec.Cells()
	want := [][2]int{{2, 5}, {2, 3}, {1, 5}, {1, 3}}
	if len(cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(cells), len(want))
	}
	seeds := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i || c.K != want[i][0] || c.E != want[i][1] {
			t.Errorf("cell %d = (%d,%d,%d), want (%d,%d,%d)", i, c.Index, c.K, c.E, i, want[i][0], want[i][1])
		}
		if c.Seed != cellSeed(9, c.K, c.E) {
			t.Errorf("cell %d seed not derived from (base,K,E)", i)
		}
		if seeds[c.Seed] {
			t.Errorf("cell %d seed collides", i)
		}
		seeds[c.Seed] = true
	}
	// The derivation is part of the checkpoint contract: pin two values so
	// an accidental change fails loudly rather than silently invalidating
	// every checked-in checkpoint.
	if got := cellSeed(7, 1, 1); got != 1563153243576382911 {
		t.Errorf("cellSeed(7,1,1) = %d, want 1563153243576382911", got)
	}
	if got := cellSeed(0, 100, 20); got != 2661282958356151324 {
		t.Errorf("cellSeed(0,100,20) = %d, want 2661282958356151324", got)
	}
}

func TestReadSweepCheckpointErrors(t *testing.T) {
	if _, err := ReadSweepCheckpoint(strings.NewReader("{\"index\":0}\nnot json\n")); err == nil {
		t.Error("malformed line must error")
	} else if !strings.Contains(err.Error(), "line 2") || !errors.Is(err, ErrExperiment) {
		t.Errorf("error %v should name line 2 and wrap ErrExperiment", err)
	}
	cells, err := ReadSweepCheckpoint(strings.NewReader("\n\n"))
	if err != nil || len(cells) != 0 {
		t.Errorf("blank checkpoint = %v cells, err %v", cells, err)
	}
}

func TestComputeFrontier(t *testing.T) {
	if _, err := ComputeFrontier(nil); !errors.Is(err, ErrExperiment) {
		t.Errorf("empty cells error = %v, want ErrExperiment", err)
	}
	cells := []CellResult{
		{Index: 0, K: 1, E: 1, TotalJoules: 10, FinalAccuracy: 0.90}, // dominated by 2
		{Index: 1, K: 1, E: 2, TotalJoules: 5, FinalAccuracy: 0.80},  // front (cheapest)
		{Index: 2, K: 2, E: 1, TotalJoules: 8, FinalAccuracy: 0.95},  // front (best acc)
		{Index: 3, K: 2, E: 2, TotalJoules: 9, FinalAccuracy: 0.95},  // dominated by 2
		{Index: 4, K: 4, E: 1, TotalJoules: 8, FinalAccuracy: 0.95},  // tie with 2: both on front
	}
	f, err := ComputeFrontier(cells)
	if err != nil {
		t.Fatalf("ComputeFrontier: %v", err)
	}
	wantFront := map[int]bool{1: true, 2: true, 4: true}
	for i, p := range f.Points {
		if p.OnFront != wantFront[i] {
			t.Errorf("cell %d OnFront = %v, want %v", i, p.OnFront, wantFront[i])
		}
	}
	if len(f.Front) != 3 {
		t.Fatalf("front size = %d, want 3", len(f.Front))
	}
	// Energy-ascending, tie broken by index.
	if f.Front[0].Index != 1 || f.Front[1].Index != 2 || f.Front[2].Index != 4 {
		t.Errorf("front order = %d,%d,%d, want 1,2,4", f.Front[0].Index, f.Front[1].Index, f.Front[2].Index)
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"Pareto front: 3 of 5 cells", "min energy 5.00 J at (K=1,E=2", "max accuracy 0.9500 at (K=2,E=1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q in:\n%s", want, buf.String())
		}
	}
}

func TestRunTrainingWithOverrides(t *testing.T) {
	setup := quickSetup(t)
	// K=2, E=1 is hundreds of rounds from the target: it must stop exactly
	// at the given cap.
	res, err := setup.RunTraining(2, 1, 1, 3, nil)
	if err != nil {
		t.Fatalf("RunTraining: %v", err)
	}
	if len(res.History) != 3 {
		t.Errorf("rounds = %d, want the cap 3", len(res.History))
	}
	// Observer threading through sim: one record per round, and attaching
	// one must not perturb the run.
	seen := 0
	obs, err := setup.RunTraining(2, 1, 1, 3, fl.FuncObserver(func(fl.RoundStats) { seen++ }))
	if err != nil {
		t.Fatalf("RunTraining observer: %v", err)
	}
	if seen != 3 {
		t.Errorf("observer saw %d rounds, want 3", seen)
	}
	if obs.FinalLoss != res.FinalLoss || obs.FinalAccuracy != res.FinalAccuracy {
		t.Error("observer perturbed the run")
	}
}
