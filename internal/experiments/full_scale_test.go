package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFullScaleSweepSmoke exercises the Full tier end-to-end: the
// 60k-sample, 100-server setup, a K=100 sweep cell through the checkpointed
// runner, and the frontier CSV artifact. Setup alone allocates ~1 GB and
// the cell takes minutes of CPU, so it is double-gated — skipped under
// -short and unless explicitly requested:
//
//	EEFEI_FULL_SCALE=1 go test ./internal/experiments -run FullScaleSweep -v -timeout 30m
func TestFullScaleSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	if os.Getenv("EEFEI_FULL_SCALE") == "" {
		t.Skip("set EEFEI_FULL_SCALE=1 to run the full-scale sweep smoke test")
	}
	setup, err := NewSetup(Full)
	if err != nil {
		t.Fatalf("NewSetup: %v", err)
	}
	if setup.Servers != 100 || len(setup.Shards) != 100 {
		t.Fatalf("servers = %d, shards = %d, want 100", setup.Servers, len(setup.Shards))
	}
	if got := setup.SamplesPerServer(); got != 600 {
		t.Fatalf("samples per server = %d, want 600 (60k/100)", got)
	}
	if setup.Shards[0].Dim() != 784 {
		t.Fatalf("dim = %d, want 784", setup.Shards[0].Dim())
	}
	if setup.Test.Len() != 10000 {
		t.Fatalf("test set = %d, want 10000", setup.Test.Len())
	}

	// One K=100 cell (every server selected), capped at 2 rounds: the
	// acceptance smoke for "a ≥60k-sample, K=100 cell end-to-end".
	spec := SweepSpec{Ks: []int{100}, Es: []int{1}, Seed: 1, RoundCap: 2}
	var ckpt bytes.Buffer
	results, err := RunSweep(setup, spec, SweepOptions{Checkpoint: &ckpt})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	cell := results[0]
	if cell.K != 100 || cell.Rounds != 2 {
		t.Fatalf("cell ran (K=%d, rounds=%d), want (100, 2)", cell.K, cell.Rounds)
	}
	if cell.TotalJoules <= 0 || cell.PhaseJoules["train"] <= 0 {
		t.Fatalf("no energy recorded: %+v", cell)
	}
	if cell.FinalAccuracy <= 0.1 {
		t.Errorf("accuracy %v after 2 rounds of K=100 — below the 10-class chance floor", cell.FinalAccuracy)
	}

	frontier, err := ComputeFrontier(results)
	if err != nil {
		t.Fatalf("ComputeFrontier: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrontierCSV(f, frontier); err != nil {
		t.Fatalf("WriteFrontierCSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("frontier csv missing (%v)", err)
	}
	// The checkpoint must resume-validate against its own spec.
	cells, err := ReadSweepCheckpoint(&ckpt)
	if err != nil || len(cells) != 1 {
		t.Fatalf("checkpoint = %d cells, err %v", len(cells), err)
	}
}
