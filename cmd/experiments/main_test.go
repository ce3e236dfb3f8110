package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTables(t *testing.T) {
	if err := run([]string{"-only", "table1,table2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunFig3WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-only", "fig3", "-csv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "fig3_trace.csv")); err != nil || fi.Size() == 0 {
		t.Errorf("fig3 csv missing (%v)", err)
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-scale", "cosmic"}); err == nil {
		t.Error("bad scale must error")
	}
}

func TestRunUnknownOnlyRejected(t *testing.T) {
	// An id that is no experiment must not select nothing and exit 0: the
	// error names it and lists the ids that are.
	err := run([]string{"-only", "table2,fig99"})
	if err == nil {
		t.Fatal("unknown id must error")
	}
	for _, want := range []string{`"fig99"`, "table1", "ablation"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestRunSweepWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	err := run([]string{
		"-sweep", "K=1,2;E=1,2", "-sweep-rounds", "2",
		"-out", dir, "-trace", trace,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "sweep.jsonl"))
	if err != nil {
		t.Fatalf("sweep.jsonl: %v", err)
	}
	if n := bytes.Count(ckpt, []byte("\n")); n != 4 {
		t.Errorf("checkpoint has %d lines, want 4", n)
	}
	if fi, err := os.Stat(filepath.Join(dir, "frontier.csv")); err != nil || fi.Size() == 0 {
		t.Errorf("frontier.csv missing (%v)", err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("trace missing (%v)", err)
	}
}

func TestRunSweepResumeByteIdentical(t *testing.T) {
	full := t.TempDir()
	if err := run([]string{"-sweep", "K=1,2;E=1,2", "-sweep-rounds", "2", "-out", full}); err != nil {
		t.Fatalf("full run: %v", err)
	}
	want, err := os.ReadFile(filepath.Join(full, "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join(full, "frontier.csv"))
	if err != nil {
		t.Fatal(err)
	}

	// Resume from a 2-cell prefix of the full checkpoint.
	lines := bytes.SplitAfter(want, []byte("\n"))
	part := t.TempDir()
	prefix := filepath.Join(part, "prefix.jsonl")
	if err := os.WriteFile(prefix, append(append([]byte{}, lines[0]...), lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"-sweep", "K=1,2;E=1,2", "-sweep-rounds", "2",
		"-resume", prefix, "-out", part,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(part, "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed checkpoint differs from the full run")
	}
	gotCSV, err := os.ReadFile(filepath.Join(part, "frontier.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Error("resumed frontier csv differs from the full run")
	}
}

func TestRunSweepBadGrid(t *testing.T) {
	for _, grid := range []string{"K=0;E=1", "K=1", "bogus", "K=1;E=1;K=2"} {
		if err := run([]string{"-sweep", grid}); err == nil {
			t.Errorf("grid %q must error", grid)
		}
	}
}
