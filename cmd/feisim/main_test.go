package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunQuick(t *testing.T) {
	// A tiny run: K=2, E=2, capped at 3 rounds.
	args := []string{"-k", "2", "-e", "2", "-max-rounds", "3", "-target", "0.999"}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithCollection(t *testing.T) {
	args := []string{"-k", "1", "-e", "1", "-max-rounds", "2", "-target", "0.999", "-collect"}
	if err := run(args); err != nil {
		t.Fatalf("run -collect: %v", err)
	}
}

func TestRunCalibrate(t *testing.T) {
	// -calibrate with and without -trace: the calibrator rides next to the
	// trace writer via fl.Tee in the first run and alone in the second.
	trace := t.TempDir() + "/run.jsonl"
	args := []string{"-k", "2", "-e", "2", "-max-rounds", "2", "-target", "0.999",
		"-calibrate", "-trace", trace}
	if err := run(args); err != nil {
		t.Fatalf("run -calibrate -trace: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("trace not written alongside calibration: %v", err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 2 {
		t.Errorf("trace has %d lines, want 2", lines)
	}
	args = []string{"-k", "2", "-e", "2", "-max-rounds", "2", "-target", "0.999", "-calibrate"}
	if err := run(args); err != nil {
		t.Fatalf("run -calibrate: %v", err)
	}
}

func TestRunBadScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}); err == nil {
		t.Error("bad scale must error")
	}
}

func TestRunBadK(t *testing.T) {
	if err := run([]string{"-k", "9999", "-max-rounds", "1"}); err == nil {
		t.Error("K beyond the fleet must error")
	}
}
