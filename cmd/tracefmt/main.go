// Command tracefmt summarizes a per-round JSONL trace produced by the
// engines' -trace flag (cmd/feisim, cmd/fedcoord; schema in DESIGN.md §7):
// per-phase wall-clock totals and shares, p50/p99 phase latencies, and the
// sustained round throughput. It is the quick answer to "where do my rounds
// spend their time" — e.g. whether evaluation still dominates after a change.
//
// Usage:
//
//	go run ./cmd/tracefmt out.jsonl
//	go run ./cmd/tracefmt -energy out.jsonl
//	go run ./cmd/feisim -trace /dev/stdout ... | go run ./cmd/tracefmt
//
// With -energy the report gains a measured per-phase energy table: each
// round's phase durations are replayed through an energy.Calibrator, pricing
// them with the canonical Raspberry Pi power model (paper Table I), so a
// persisted trace answers "how many joules did each phase cost" offline.
// Traces from a datagram run (cmd/fedcoord -transport dgram) additionally
// carry attempted-vs-delivered byte counters; -energy then reports the
// measured expected energy per delivered byte, ρ·attempted/delivered at the
// paper's NB-IoT ρ, next to the analytic ρ/p of Eq. 4 when -success-prob
// supplies the configured per-attempt delivery probability.
//
// With no argument the trace is read from stdin. Records are one JSON object
// per line; blank lines are skipped, anything else malformed is a hard error
// with its line number.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/iot"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "tracefmt:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: parses flags, opens the trace, and writes
// the report to stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracefmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tracefmt [-energy] [trace.jsonl]")
		fs.PrintDefaults()
	}
	withEnergy := fs.Bool("energy", false,
		"append a measured per-phase energy table (canonical Pi power model)")
	successProb := fs.Float64("success-prob", 0,
		"configured per-attempt delivery probability p of a datagram trace; "+
			"with -energy, prints the analytic ρ/p next to the measured energy per delivered byte")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *successProb < 0 || *successProb > 1 {
		fs.Usage()
		return fmt.Errorf("-success-prob %v outside [0,1]: %w", *successProb, flag.ErrHelp)
	}
	var in io.Reader = stdin
	name := "<stdin>"
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
	default:
		fs.Usage()
		return flag.ErrHelp
	}
	if err := report(stdout, in, *withEnergy, *successProb); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

var errEmptyTrace = errors.New("no trace records")

// phaseNames orders the summary rows; "other" is the commit/bookkeeping
// remainder Total accumulates beyond the four measured phases.
var phaseNames = []string{"select", "train", "aggregate", "evaluate", "other"}

// report decodes a JSONL round trace from r and writes the phase-share
// summary — plus, when withEnergy is set, the measured energy table — to w.
// successProb, when > 0, is the configured per-attempt delivery probability
// used for the analytic ρ/p comparison of a datagram trace.
func report(w io.Writer, r io.Reader, withEnergy bool, successProb float64) error {
	stats, err := readTrace(r)
	if err != nil {
		return err
	}
	summarize(w, stats)
	if withEnergy {
		return energyTable(w, stats, successProb)
	}
	return nil
}

// summarize writes the phase-share report for the decoded rounds to w.
func summarize(w io.Writer, stats []fl.RoundStats) {
	n := len(stats)
	perPhase := make(map[string][]time.Duration, len(phaseNames))
	var grand time.Duration
	totals := make(map[string]time.Duration, len(phaseNames))
	var dropped, retries, rejoins int
	for _, s := range stats {
		phased := time.Duration(0)
		for p := fl.PhaseSelect; p <= fl.PhaseEvaluate; p++ {
			d := s.PhaseDuration(p)
			perPhase[p.String()] = append(perPhase[p.String()], d)
			totals[p.String()] += d
			phased += d
		}
		other := s.Total - phased
		if other < 0 {
			other = 0
		}
		perPhase["other"] = append(perPhase["other"], other)
		totals["other"] += other
		grand += s.Total
		dropped += s.Dropped
		retries += s.Retries
		rejoins += s.Rejoins
	}

	fmt.Fprintf(w, "rounds:     %d\n", n)
	fmt.Fprintf(w, "wall clock: %s\n", grand)
	if grand > 0 {
		fmt.Fprintf(w, "throughput: %.2f rounds/sec\n", float64(n)/grand.Seconds())
	}
	if dropped > 0 || retries > 0 || rejoins > 0 {
		fmt.Fprintf(w, "faults:     %d dropped, %d retried, %d rejoined\n", dropped, retries, rejoins)
	}
	fmt.Fprintf(w, "\n%-10s %14s %7s %14s %14s\n", "phase", "total", "share", "p50", "p99")
	for _, name := range phaseNames {
		ds := perPhase[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		share := 0.0
		if grand > 0 {
			share = 100 * float64(totals[name]) / float64(grand)
		}
		fmt.Fprintf(w, "%-10s %14s %6.1f%% %14s %14s\n",
			name, totals[name], share, percentile(ds, 50), percentile(ds, 99))
	}
}

// energyTable replays the decoded rounds through an energy.Calibrator and
// writes the measured per-phase joules table: the coordination phases map to
// device energy phases via energy.MapRoundPhase (select→waiting,
// aggregate→upload, evaluate→download; the commit remainder is charged at
// waiting power). Traces carrying measured frame-byte counts (networked
// runs) get the upload/download phases priced from bytes on the wire via
// the canonical WiFi radio model, plus a bytes-on-wire summary table.
func energyTable(w io.Writer, stats []fl.RoundStats, successProb float64) error {
	var down, up int64
	var attempted, delivered int64
	for _, s := range stats {
		down += s.DownlinkBytes
		up += s.UplinkBytes
		attempted += s.DownlinkAttemptBytes + s.UplinkAttemptBytes
		delivered += s.DownlinkDeliveredBytes + s.UplinkDeliveredBytes
	}
	opts := []energy.CalibratorOption{}
	if down > 0 || up > 0 {
		opts = append(opts, energy.WithRadioModel(energy.DefaultWiFiRadioModel()))
	}
	cal, err := energy.NewCalibrator(energy.DefaultPiPowerModel(), 1, 0, opts...)
	if err != nil {
		return err
	}
	cal.Replay(stats)
	led := cal.Ledger()
	fmt.Fprintf(w, "\nmeasured energy (canonical Pi power model):\n")
	fmt.Fprintf(w, "%-10s %14s %12s %8s\n", "phase", "time", "joules", "watts")
	var wall time.Duration
	for _, p := range energy.Phases {
		d := cal.PhaseWallClock(p)
		j := led.Phase(p)
		watts := 0.0
		if secs := d.Seconds(); secs > 0 {
			watts = j / secs
		}
		fmt.Fprintf(w, "%-10s %14s %12.3f %8.3f\n", p.String(), d, j, watts)
		wall += d
	}
	fmt.Fprintf(w, "%-10s %14s %12.3f\n", "total", wall, led.Total())
	if n := led.Rounds(); n > 0 {
		fmt.Fprintf(w, "per round:  %.3f J\n", led.Total()/float64(n))
	}
	if down > 0 || up > 0 {
		rm := energy.DefaultWiFiRadioModel()
		n := int64(len(stats))
		fmt.Fprintf(w, "\nbytes on the wire (measured frames; radio model pricing):\n")
		fmt.Fprintf(w, "%-10s %14s %14s %12s\n", "direction", "total", "per round", "joules")
		fmt.Fprintf(w, "%-10s %13dB %13dB %12.3f\n", "downlink", down, down/n, rm.DownloadEnergy(down))
		fmt.Fprintf(w, "%-10s %13dB %13dB %12.3f\n", "uplink", up, up/n, rm.UploadEnergy(up))
	}
	if attempted > 0 && delivered > 0 {
		datagramSection(w, attempted, delivered, successProb)
	}
	return nil
}

// datagramSection reports the Eq. 4 closure of a datagram trace: the
// transport counted every transmission attempt (retransmissions and injected
// losses included, at wire size) against the unique bytes acknowledged, so
// attempted/delivered is the measured mean attempt count 1/p̂ and
// ρ·attempted/delivered the measured expected energy per delivered byte at
// the paper's NB-IoT ρ. With a configured p (-success-prob) the analytic ρ/p
// is printed alongside with the relative deviation.
func datagramSection(w io.Writer, attempted, delivered int64, successProb float64) {
	ratio := float64(attempted) / float64(delivered)
	rho := iot.NBIoTJoulesPerByte
	fmt.Fprintf(w, "\ndatagram delivery (Eq. 4 on measured bytes; ρ = NB-IoT %.5g J/B):\n", rho)
	fmt.Fprintf(w, "attempted:  %dB\n", attempted)
	fmt.Fprintf(w, "delivered:  %dB\n", delivered)
	fmt.Fprintf(w, "measured:   %.4f attempts per delivered byte (p̂ = %.4f)\n", ratio, 1/ratio)
	fmt.Fprintf(w, "measured:   %.6g J per delivered byte (ρ·attempted/delivered)\n", rho*ratio)
	if successProb > 0 {
		analytic := rho / successProb
		dev := 100 * (rho*ratio - analytic) / analytic
		fmt.Fprintf(w, "analytic:   %.6g J per delivered byte (ρ/p at p = %.4f), measured %+.2f%% off\n",
			analytic, successProb, dev)
	}
}

// readTrace decodes one RoundStats per non-blank line via fl.ReadTrace,
// keeping tracefmt's contract that an empty capture is a hard error rather
// than an empty report.
func readTrace(r io.Reader) ([]fl.RoundStats, error) {
	stats, err := fl.ReadTrace(r)
	if err != nil {
		return nil, err
	}
	if len(stats) == 0 {
		return nil, errEmptyTrace
	}
	return stats, nil
}

// percentile returns the nearest-rank p-th percentile of the sorted
// durations: the smallest element with at least p% of the sample at or below
// it — the same convention most latency dashboards use, and exact (no
// interpolation) so golden outputs are stable.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
