package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"eefei/internal/energy"
	"eefei/internal/fl"
)

// span is one timed interval at a layer boundary. Every span of a traced
// run shares Run; Parent is the span that caused it (0 for the root).
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNs/EndNs count from the start of the traced run.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

// tracer is the harness side of a traced run: it is the fl.RoundObserver
// attached to the system (public API — the program under test is not
// edited), and it keeps workload → episode → round → phase spans in memory
// until the run ends. All times come from the harness's own clock reads
// around calls into each layer; phase spans are laid out backwards from the
// moment the observer was called, using the durations RoundStats reports.
type tracer struct {
	run   string
	zero  time.Time
	spans []span
	root  int // workload span
	cur   int // current episode span

	pending   fl.RoundStats
	pendingAt time.Time
	observed  bool

	// Of the current episode.
	cal          *energy.Calibrator
	stats        []fl.RoundStats
	imbalanceSum float64 // Σ over rounds of max÷mean of WorkerClaims
	imbalanceN   int
}

func newTracer(sp spec, seed uint64) *tracer {
	tr := &tracer{run: fmt.Sprintf("%s.seed%d", sp.Name, seed), zero: time.Now()}
	tr.root = tr.add(sp.Name, 0, tr.zero, tr.zero)
	return tr
}

func (tr *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		Run: tr.run, ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(tr.zero).Nanoseconds(), EndNs: end.Sub(tr.zero).Nanoseconds(),
	})
	return id
}

func (tr *tracer) setEnd(id int, end time.Time) {
	tr.spans[id-1].EndNs = end.Sub(tr.zero).Nanoseconds()
}

// beginEpisode records the set-up that just finished and opens the episode,
// with a fresh energy.Calibrator to tee beside the tracer.
func (tr *tracer) beginEpisode(sp spec, start time.Time, ep episode) error {
	cal, err := energy.NewCalibrator(energy.DefaultPiPowerModel(), sp.E, sp.Rows,
		energy.WithRadioModel(energy.DefaultWiFiRadioModel()))
	if err != nil {
		return err
	}
	tr.cal, tr.stats, tr.imbalanceSum, tr.imbalanceN = cal, nil, 0, 0
	tr.cur = tr.add("episode", tr.root, start, start)
	setup := tr.add("setup", tr.cur, start, start.Add(ep.Setup))
	tr.add("dataset.synthesize", setup, start, start.Add(ep.Synth))
	at := start.Add(ep.Synth)
	tr.add("dataset.partition", setup, at, at.Add(ep.Partition))
	// Joins are sequential and the last one ends set-up.
	at = start.Add(ep.Setup)
	for _, d := range ep.Joins {
		at = at.Add(-d)
	}
	for _, d := range ep.Joins {
		tr.add("flnet.join", setup, at, at.Add(d))
		at = at.Add(d)
	}
	return nil
}

// endEpisode closes the episode and hands it what the observers collected.
func (tr *tracer) endEpisode(end time.Time, ep *episode) {
	tr.setEnd(tr.cur, end)
	tr.setEnd(tr.root, end)
	ep.Stats, ep.CalibratedJ = tr.stats, tr.cal.Ledger().Total()
	if tr.imbalanceN > 0 {
		ep.Imbalance = tr.imbalanceSum / float64(tr.imbalanceN)
	}
}

var _ fl.RoundObserver = (*tracer)(nil)

// ObserveRound implements fl.RoundObserver. It runs inside Round(), after
// the engine stopped its phase clock.
func (tr *tracer) ObserveRound(s fl.RoundStats) {
	tr.pendingAt = time.Now()
	if len(s.WorkerClaims) > 0 {
		max, sum := 0, 0
		for _, c := range s.WorkerClaims {
			sum += c
			if c > max {
				max = c
			}
		}
		if sum > 0 {
			tr.imbalanceSum += float64(max) * float64(len(s.WorkerClaims)) / float64(sum)
			tr.imbalanceN++
		}
	}
	s.WorkerClaims = nil // only valid during this call
	tr.pending, tr.observed = s, true
}

// round records the harness-timed Round() call and, under it, the phases
// the observer saw.
func (tr *tracer) round(t0, t1 time.Time) {
	id := tr.add("round", tr.cur, t0, t1)
	if !tr.observed {
		return
	}
	tr.observed = false
	s := tr.pending
	tr.stats = append(tr.stats, s)
	at := tr.pendingAt.Add(-s.Total)
	for p := fl.PhaseSelect; p <= fl.PhaseEvaluate; p++ {
		d := s.PhaseDuration(p)
		tr.add(p.String(), id, at, at.Add(d))
		at = at.Add(d)
	}
	tr.add("commit", id, at, tr.pendingAt)
}

// probe times one layer probe as a span under the workload.
func (tr *tracer) probe(name string, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	tr.add(name, tr.root, start, end)
	tr.setEnd(tr.root, end)
}

// write dumps the spans as JSON lines.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
