package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs all four workloads, untraced and traced, for five rounds
// each: every metric BENCHMARK.json names must come out exactly once with its
// unit and a finite value, and the checks on determinism and byte accounting
// must hold.
func TestSmoke(t *testing.T) {
	start := time.Now()
	var results []result
	for _, sp := range specs {
		res := measure(sp, options{seed: 1, smoke: true, traced: true, outDir: t.TempDir()})
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %q failed: %s", sp.Name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d failed of %d attempted", sp.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", sp.Name, len(res.EndToEnd), len(endToEnd))
		}
		for _, def := range endToEnd {
			s, ok := res.EndToEnd[def.Name]
			if !ok || s.Unit != def.Unit || !(s.Best > 0) || math.IsInf(s.Best, 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a finite value above 0 in %s", sp.Name, def.Name, s, def.Unit)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", sp.Name, len(res.PerLayer), len(perLayer))
		}
		for _, def := range perLayer {
			if v, ok := res.PerLayer[def.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v), want a finite value", sp.Name, def.Name, v, ok)
			}
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(driverLine(res, traced)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", sp.Name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s: driver line (traced %v) has %d metrics, want %d", sp.Name, traced, len(line.Metrics), len(defs))
			}
			for _, def := range defs {
				if m, ok := line.Metrics[def.Name]; !ok || m.Unit != def.Unit {
					t.Errorf("%s: driver line (traced %v) metric %s = %+v", sp.Name, traced, def.Name, m)
				}
			}
		}
		results = append(results, res)
	}
	if c, ok := crossTransport(results); !ok || !c.OK {
		t.Errorf("cross-transport check ran=%v: %+v", ok, c)
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 15 s", d)
	}
}

// TestTraceFile checks the span file of a traced run: one root, every other
// span inside its parent's run, phases under rounds.
func TestTraceFile(t *testing.T) {
	dir := t.TempDir()
	sp, _ := findSpec("wire_tcp")
	if res := measure(sp, options{seed: 3, smoke: true, traced: true, outDir: dir}); !res.Correct {
		t.Fatalf("checks failed: %+v", res.Checks)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wire_tcp.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	byID := map[int]span{}
	dec := json.NewDecoder(bytes.NewReader(b))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.Run != "wire_tcp.seed3" || s.EndNs < s.StartNs {
			t.Errorf("bad span %+v", s)
		}
		names[s.Name]++
		byID[s.ID] = s
	}
	for _, s := range byID {
		if s.Parent == 0 {
			if s.Name != "wire_tcp" {
				t.Errorf("root span is %q", s.Name)
			}
			continue
		}
		if p, ok := byID[s.Parent]; !ok || (s.Name == "train" && p.Name != "round") {
			t.Errorf("span %+v has parent %+v", s, p)
		}
	}
	// One traced episode of five rounds, eight joins, four probes.
	want := map[string]int{"wire_tcp": 1, "episode": 1, "setup": 1, "flnet.join": 8, "round": 5, "train": 5, "commit": 5,
		"mat": 1, "ml": 1, "fldgram.pipe": 1, "energy": 1}
	for name, n := range want {
		if names[name] != n {
			t.Errorf("%d %q spans, want %d (all: %v)", names[name], name, n, names)
		}
	}
}

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step: same workloads with the same why, same metrics with the same unit,
// direction and bound, and nothing else.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "-C", "bench", "."}; !reflect.DeepEqual(bm.Command, want) {
		t.Errorf("command %v, want %v", bm.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bm.Paths, want) {
		t.Errorf("paths %v, want %v", bm.Paths, want)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bm.RunSeconds)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(bm.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := bm.Workloads[i]; w.Name != sp.Name || w.Why != sp.Why || len([]rune(w.Why)) > 200 {
			t.Errorf("workload %d is %+v, want %s: %q (at most 200 characters)", i, w, sp.Name, sp.Why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			ok := g.Name == def.Name && g.Unit == def.Unit && g.Better == def.Better
			if bounded {
				ok = ok && g.Bound != nil && *g.Bound == def.Bound && def.Bound > 0 && def.Bound <= 0.25
			} else {
				ok = ok && g.Bound == nil
			}
			if !ok {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, g, def)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd, true)
	same("per_layer", bm.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{"x_s", "s", "lower", 0.10}
	higher := metricDef{"x_per_s", "1/s", "higher", 0.10}
	tight := func(center float64) summary {
		return summarize(lower, []float64{center * 0.99, center, center * 1.01, center, center})
	}
	wide := func(center float64) summary {
		return summarize(lower, []float64{center * 0.8, center, center * 1.2, center * 0.9, center * 1.1})
	}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"same", lower, tight(10), tight(10), "ok"},
		{"within bound", lower, tight(10), tight(10.9), "ok"},
		{"beyond bound", lower, tight(10), tight(11.2), "worse"},
		{"better", lower, tight(10), tight(5), "ok"},
		{"higher is better, drop beyond bound", higher, tight(10), tight(8.8), "worse"},
		{"higher is better, rise", higher, tight(10), tight(12), "ok"},
		{"spread wider than the bound", lower, wide(10), wide(10.5), "unresolved"},
		{"wide, but every b run beats every a run", lower, wide(10), tight(5), "ok"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	file := func(ttt float64, failed int) resultFile {
		e2e := map[string]summary{}
		for _, def := range endToEnd {
			e2e[def.Name] = tight(10)
		}
		e2e["time_to_target_s"] = tight(ttt)
		return resultFile{Schema: 1, Workloads: []result{{
			Spec: specs[0], Correct: failed == 0, Attempted: 100, Failed: failed, FailRatio: float64(failed) / 100, EndToEnd: e2e,
		}}}
	}
	for _, tc := range []struct {
		name string
		b    resultFile
		want int
	}{
		{"identical", file(10, 0), 0},
		{"slower beyond the bound", file(13, 0), 1},
		{"fail_ratio rose", file(10, 1), 1},
	} {
		if got := compareResults(file(10, 0), tc.b, "a", "b"); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
