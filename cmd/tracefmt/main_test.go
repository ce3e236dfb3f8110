package main

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"eefei/internal/fl"
)

// TestSummarizeGolden pins the report for the checked-in trace (a real
// 12-round feisim-style run captured via fl.TraceWriter).
func TestSummarizeGolden(t *testing.T) {
	trace, err := os.Open("testdata/sample_trace.jsonl")
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer trace.Close()
	want, err := os.ReadFile("testdata/sample_trace.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var out strings.Builder
	if err := report(&out, trace, false, 0); err != nil {
		t.Fatalf("report: %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("summary differs from golden.\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

// TestEnergyGolden pins the -energy report for the same checked-in trace:
// the shares/p50/p99 summary followed by the measured per-phase joules table
// priced with the canonical Pi power model via energy.Calibrator.Replay.
func TestEnergyGolden(t *testing.T) {
	trace, err := os.Open("testdata/sample_trace.jsonl")
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer trace.Close()
	want, err := os.ReadFile("testdata/sample_energy.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var out strings.Builder
	if err := report(&out, trace, true, 0); err != nil {
		t.Fatalf("report: %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("energy report differs from golden.\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
	for _, col := range []string{"measured energy", "joules", "watts", "per round:"} {
		if !strings.Contains(out.String(), col) {
			t.Errorf("energy report missing %q", col)
		}
	}
}

// TestRunEnergyFlag drives the CLI entry point end to end: -energy on the
// checked-in trace must succeed and emit both report sections, and a plain
// run must not emit the energy table.
func TestRunEnergyFlag(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-energy", "testdata/sample_trace.jsonl"}, nil, &out, &errOut); err != nil {
		t.Fatalf("run -energy: %v (stderr %q)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "measured energy") {
		t.Errorf("-energy output missing the energy table:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"testdata/sample_trace.jsonl"}, nil, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "measured energy") {
		t.Error("plain run must not emit the energy table")
	}
	if err := run([]string{"a", "b"}, nil, &out, &errOut); err == nil {
		t.Error("two positional args must be rejected")
	}
	if err := run([]string{"testdata/does_not_exist.jsonl"}, nil, &out, &errOut); err == nil {
		t.Error("missing trace file must be an error")
	}
}

// TestDgramEnergySection: a trace carrying the datagram attempted/delivered
// counters must grow the -energy report by the Eq. 4 section — measured
// attempts per delivered byte and ρ·attempted/delivered — and, when
// -success-prob supplies the configured p, the analytic ρ/p alongside.
func TestDgramEnergySection(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-energy", "-success-prob", "0.9", "testdata/dgram_trace.jsonl"}, nil, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"datagram delivery (Eq. 4 on measured bytes",
		"attempted:  245600B",
		"delivered:  220800B",
		"1.1123 attempts per delivered byte",
		"p̂ = 0.8990",
		"analytic:",
		"ρ/p at p = 0.9000",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dgram energy report missing %q:\n%s", want, got)
		}
	}

	// Without -success-prob the measured side still prints, the analytic
	// comparison does not.
	out.Reset()
	if err := run([]string{"-energy", "testdata/dgram_trace.jsonl"}, nil, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "datagram delivery") {
		t.Error("measured section must not require -success-prob")
	}
	if strings.Contains(out.String(), "analytic:") {
		t.Error("analytic line must require -success-prob")
	}

	// A stream trace (no attempt counters) must not grow the section, and an
	// out-of-range probability is a usage error.
	out.Reset()
	if err := run([]string{"-energy", "testdata/sample_trace.jsonl"}, nil, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out.String(), "datagram delivery") {
		t.Error("stream trace must not emit the datagram section")
	}
	if err := run([]string{"-success-prob", "1.5", "testdata/dgram_trace.jsonl"}, nil, &out, &errOut); err == nil {
		t.Error("-success-prob outside [0,1] must be rejected")
	}
}

// TestSummarizeFaults pins the faults line: it appears whenever any of the
// three fault counters is non-zero, with all three summed over the trace,
// and is absent from a fault-free trace.
func TestSummarizeFaults(t *testing.T) {
	tests := []struct {
		name  string
		stats []fl.RoundStats
		want  string // "" = no faults line
	}{
		{"only drops", []fl.RoundStats{{Dropped: 2}, {Dropped: 1}}, "faults:     3 dropped, 0 retried, 0 rejoined\n"},
		{"only retries", []fl.RoundStats{{}, {Retries: 1}}, "faults:     0 dropped, 1 retried, 0 rejoined\n"},
		{"only rejoins", []fl.RoundStats{{Rejoins: 1}, {Rejoins: 2}}, "faults:     0 dropped, 0 retried, 3 rejoined\n"},
		{"none", []fl.RoundStats{{}, {}}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for i := range tt.stats {
				tt.stats[i].Total = time.Millisecond
			}
			var out strings.Builder
			summarize(&out, tt.stats)
			got := out.String()
			if tt.want == "" {
				if strings.Contains(got, "faults:") {
					t.Errorf("fault-free trace printed a faults line:\n%s", got)
				}
			} else if !strings.Contains(got, tt.want) {
				t.Errorf("summary missing %q:\n%s", tt.want, got)
			}
		})
	}
}

func TestSummarizeRejectsEmptyInput(t *testing.T) {
	var out strings.Builder
	for _, in := range []string{"", "\n\n  \n"} {
		if err := report(&out, strings.NewReader(in), false, 0); !errors.Is(err, errEmptyTrace) {
			t.Errorf("empty input %q = %v, want errEmptyTrace", in, err)
		}
	}
}

func TestSummarizeReportsBadLineNumber(t *testing.T) {
	in := `{"round":0,"total_ns":10}

not json at all`
	var out strings.Builder
	err := report(&out, strings.NewReader(in), false, 0)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed line error = %v, want mention of line 3", err)
	}
}

func TestSummarizeSingleRound(t *testing.T) {
	// 1µs select + 5µs train inside a 10µs total: "other" absorbs the 4µs
	// remainder and shares sum to 100%.
	in := `{"round":0,"select_ns":1000,"train_ns":5000,"aggregate_ns":0,"evaluate_ns":0,"total_ns":10000,"rounds_per_sec":100000}`
	var out strings.Builder
	if err := report(&out, strings.NewReader(in), false, 0); err != nil {
		t.Fatalf("report: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"rounds:     1",
		"wall clock: 10µs",
		"throughput: 100000.00 rounds/sec",
		"train", "50.0%",
		"other", "40.0%",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    int
		want time.Duration
	}{{50, 5}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}}
	for _, c := range cases {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("p%d of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of empty = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("p99 of singleton = %v, want 7", got)
	}
}
