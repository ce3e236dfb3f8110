package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"eefei/internal/stats"
)

// metricDef names one metric. This table is the source BENCHMARK.json is
// checked against (bench_test.go), and the one -compare judges by.
type metricDef struct {
	Name   string
	Unit   string
	Better string // lower | higher
	// Bound is the share of the base median by which an end-to-end metric
	// may get worse before -compare calls it worse; per-layer metrics have
	// none.
	Bound float64
}

// End-to-end: what someone running a federated job to a loss target pays.
// The four timings carry the largest bound a benchmark may have: on the
// shared 2-core host ten runs at ten seeds spread 2–9 % in a quiet quarter of
// an hour and 7–24 % in a busy one, so a tighter bound would refuse innocent
// changes. The three count-derived metrics repeat exactly for a seed; their
// bound only allows for the round or two another partition adds or saves.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"time_to_target_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"rounds_to_target", "count", "lower", 0.05},
	{"wire_bytes_to_target", "bytes", "lower", 0.05},
	{"joules_to_target", "J", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// Per-layer: one layer each, named module.metric. A metric of a module that
// is not on a workload's path reads 0 there.
var perLayer = []metricDef{
	{"dataset.synthesize_ms", "ms", "lower", 0},
	{"dataset.partition_ms", "ms", "lower", 0},

	{"mat.mult_us", "us", "lower", 0},
	{"mat.addmulta_us", "us", "lower", 0},
	{"mat.multw_speedup", "ratio", "higher", 0},

	{"ml.sgd_epoch_us", "us", "lower", 0},
	{"ml.allocs_per_epoch", "count", "lower", 0},
	{"ml.train_client_us", "us", "lower", 0},
	{"ml.eval_us_per_krow", "us", "lower", 0},
	{"ml.eval_speedup", "ratio", "higher", 0},
	{"ml.encode_us", "us", "lower", 0},
	{"ml.decode_us", "us", "lower", 0},

	{"fl.select_ms", "ms", "lower", 0},
	{"fl.train_ms", "ms", "lower", 0},
	{"fl.aggregate_ms", "ms", "lower", 0},
	{"fl.evaluate_ms", "ms", "lower", 0},
	{"fl.commit_ms", "ms", "lower", 0},
	{"fl.train_share", "ratio", "lower", 0},
	{"fl.evaluate_share", "ratio", "lower", 0},
	{"fl.pool_efficiency", "ratio", "higher", 0},
	{"fl.worker_imbalance", "ratio", "lower", 0},
	{"fl.allocs_per_round", "count", "lower", 0},
	{"fl.round_ms_tail", "ms", "lower", 0},
	{"fl.round_tail_pct", "%", "higher", 0},
	{"fl.budget_residual_pct", "%", "lower", 0},

	{"flnet.join_ms", "ms", "lower", 0},
	{"flnet.select_ms", "ms", "lower", 0},
	{"flnet.exchange_ms", "ms", "lower", 0},
	{"flnet.aggregate_ms", "ms", "lower", 0},
	{"flnet.evaluate_ms", "ms", "lower", 0},
	{"flnet.commit_ms", "ms", "lower", 0},
	{"flnet.exchange_share", "ratio", "lower", 0},
	{"flnet.wire_self_ms", "ms", "lower", 0},
	{"flnet.downlink_bytes_per_round", "bytes", "lower", 0},
	{"flnet.uplink_bytes_per_round", "bytes", "lower", 0},
	{"flnet.framing_overhead_pct", "%", "lower", 0},
	{"flnet.goodput_mb_s", "MB/s", "higher", 0},
	{"flnet.allocs_per_round", "count", "lower", 0},
	{"flnet.alloc_kb_per_round", "KiB", "lower", 0},
	{"flnet.dropped", "count", "lower", 0},
	{"flnet.retries", "count", "lower", 0},
	{"flnet.rejoins", "count", "lower", 0},
	{"flnet.edge_byte_gap", "bytes", "lower", 0},
	{"flnet.round_ms_tail", "ms", "lower", 0},

	{"fldgram.attempts_per_delivery_down", "ratio", "lower", 0},
	{"fldgram.attempts_per_delivery_up", "ratio", "lower", 0},
	{"fldgram.header_overhead_pct", "%", "lower", 0},
	{"fldgram.packets_per_round", "count", "lower", 0},
	{"fldgram.ack_packets_per_round", "count", "lower", 0},
	{"fldgram.rx_dup_packets", "count", "lower", 0},
	{"fldgram.rx_invalid_packets", "count", "lower", 0},
	{"fldgram.pipe_frame_us", "us", "lower", 0},
	{"fldgram.pipe_frame_us_loss10", "us", "lower", 0},
	{"fldgram.pipe_allocs_per_frame", "count", "lower", 0},
	{"fldgram.pipe_alloc_kb_per_frame", "KiB", "lower", 0},

	{"energy.observe_ns", "ns", "lower", 0},
	{"energy.observe_allocs", "count", "lower", 0},
	{"energy.calibrated_joules", "J", "lower", 0},
	{"energy.model_vs_calibrated_ratio", "ratio", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
}

// summary is one metric of one workload over the run's episodes. The value
// reported is Best — the fastest episode — because on a shared host other
// tenants only ever add time: within one run episode times ranged 2.9–6.1 s
// while the fastest episodes of consecutive runs agreed within 3 %. The
// median and quartiles say how disturbed the run was, and the values let
// -compare tell whether every run of one side beat every run of the other.
type summary struct {
	Unit   string    `json:"unit"`
	Best   float64   `json:"best"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	// Samples is how many timings stand behind each value, where a value
	// is itself a percentile (round_ms_p50).
	Samples int `json:"samples,omitempty"`
}

// median is 0 for no samples.
func median(xs []float64) float64 {
	m, _ := stats.Quantile(xs, 0.5)
	return m
}

// quartiles follows Python's statistics.quantiles(values, n=4) (exclusive
// method), which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

func summarize(def metricDef, xs []float64) summary {
	q1, q3 := quartiles(xs)
	best := xs[0]
	for _, x := range xs {
		if def.Better == "higher" {
			best = math.Max(best, x)
		} else {
			best = math.Min(best, x)
		}
	}
	return summary{Unit: def.Unit, Best: best, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Values: xs}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// endToEndMetrics folds the untraced episodes of a run into one summary per
// end-to-end metric.
func endToEndMetrics(eps []episode) (map[string]summary, error) {
	per := map[string][]float64{}
	for _, ep := range eps {
		per["setup_s"] = append(per["setup_s"], ep.Setup.Seconds())
		per["time_to_target_s"] = append(per["time_to_target_s"], ep.ToTarget.Seconds())
		per["rounds_per_s"] = append(per["rounds_per_s"], float64(ep.Rounds)/ep.ToTarget.Seconds())
		per["round_ms_p50"] = append(per["round_ms_p50"], median(durationsMs(ep.RoundDur)))
		per["rounds_to_target"] = append(per["rounds_to_target"], float64(ep.Rounds))
		per["wire_bytes_to_target"] = append(per["wire_bytes_to_target"], float64(ep.Bytes))
		per["joules_to_target"] = append(per["joules_to_target"], ep.Joules)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	per["peak_rss_mb"] = []float64{rss}
	out := map[string]summary{}
	for _, def := range endToEnd {
		out[def.Name] = summarize(def, per[def.Name])
	}
	p50 := out["round_ms_p50"]
	p50.Samples = eps[0].Rounds
	out["round_ms_p50"] = p50
	return out, nil
}

// tail returns the highest percentile of xs that still has ten samples
// beyond it, and the value there; with fewer than 20 samples, the maximum.
func tail(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// fastest returns the episode that reached ε soonest.
func fastest(eps []episode) episode {
	best := eps[0]
	for _, ep := range eps[1:] {
		if ep.ToTarget < best.ToTarget {
			best = ep
		}
	}
	return best
}

// layerMetrics adds to the probe results in out the per-layer metrics of the
// round: they are read off the fastest traced episode, as the end-to-end
// metrics are off the fastest untraced one, so that parts and whole are
// compared undisturbed against undisturbed. Only the tail pools the rounds
// of every traced episode, to have ten samples beyond it.
func layerMetrics(sp spec, plain, traced []episode, out map[string]float64) {
	for _, def := range perLayer {
		if _, ok := out[def.Name]; !ok {
			out[def.Name] = 0
		}
	}
	ep := fastest(traced)
	out["dataset.synthesize_ms"] = ms(ep.Synth)
	out["dataset.partition_ms"] = ms(ep.Partition)

	var sel, train, agg, eval, total time.Duration
	for _, s := range ep.Stats {
		sel, train, agg, eval, total = sel+s.Select, train+s.Train, agg+s.Aggregate, eval+s.Evaluate, total+s.Total
	}
	rounds := float64(ep.Rounds)
	phase := func(d time.Duration) float64 { return ms(d) / rounds }
	harness := 0.0
	for _, d := range ep.RoundDur {
		harness += ms(d) / rounds
	}
	commit := phase(total - sel - train - agg - eval)
	var pooled []float64
	for _, t := range traced {
		pooled = append(pooled, durationsMs(t.RoundDur)...)
	}
	tailPct, tailMs := tail(pooled)
	out["fl.round_tail_pct"] = tailPct
	out["fl.budget_residual_pct"] = 100 * math.Abs(harness-phase(total)) / harness
	procs := float64(runtime.GOMAXPROCS(0))
	clientMs := out["ml.train_client_us"] / 1e3

	if sp.Transport == "inproc" {
		out["fl.select_ms"], out["fl.train_ms"], out["fl.aggregate_ms"] = phase(sel), phase(train), phase(agg)
		out["fl.evaluate_ms"], out["fl.commit_ms"] = phase(eval), commit
		out["fl.train_share"] = float64(train) / float64(total)
		out["fl.evaluate_share"] = float64(eval) / float64(total)
		// The pool trains K clients on min(P, K) workers.
		workers := math.Min(procs, float64(sp.K))
		out["fl.pool_efficiency"] = math.Ceil(float64(sp.K)/workers) * clientMs / phase(train)
		out["fl.worker_imbalance"] = ep.Imbalance
		out["fl.allocs_per_round"] = float64(ep.Mallocs) / rounds
		out["fl.round_ms_tail"] = tailMs
	} else {
		down, up := float64(ep.Down), float64(ep.Up)
		out["flnet.join_ms"] = median(durationsMs(ep.Joins))
		out["flnet.select_ms"], out["flnet.exchange_ms"], out["flnet.aggregate_ms"] = phase(sel), phase(train), phase(agg)
		out["flnet.evaluate_ms"], out["flnet.commit_ms"] = phase(eval), commit
		out["flnet.exchange_share"] = float64(train) / float64(total)
		// An estimate: the edges train concurrently on P cores, the rest of
		// the exchange is framing, codec, syscalls and the transport.
		out["flnet.wire_self_ms"] = phase(train) - clientMs*math.Ceil(float64(sp.K)/procs)
		out["flnet.downlink_bytes_per_round"] = down / rounds
		out["flnet.uplink_bytes_per_round"] = up / rounds
		payload := 2 * float64(sp.K) * float64(ep.Final.EncodedSize())
		out["flnet.framing_overhead_pct"] = 100 * ((down+up)/rounds - payload) / payload
		out["flnet.goodput_mb_s"] = payload * rounds / ep.ToTarget.Seconds() / 1e6
		out["flnet.allocs_per_round"] = float64(ep.Mallocs) / rounds
		out["flnet.alloc_kb_per_round"] = float64(ep.AllocBytes) / rounds / 1024
		out["flnet.dropped"], out["flnet.retries"], out["flnet.rejoins"] = float64(ep.Dropped), float64(ep.Retries), float64(ep.Rejoins)
		out["flnet.edge_byte_gap"] = ep.edgeByteGap(sp)
		out["flnet.round_ms_tail"] = tailMs
		if sp.Transport == "dgram" {
			coord, edge := ep.Link.Coord, ep.Link.Edge
			out["fldgram.attempts_per_delivery_down"] = float64(ep.DownAttempt) / float64(ep.DownDelivered)
			out["fldgram.attempts_per_delivery_up"] = float64(ep.UpAttempt) / float64(ep.UpDelivered)
			out["fldgram.header_overhead_pct"] = 100 * (float64(ep.DownDelivered+ep.UpDelivered) - down - up) / (down + up)
			out["fldgram.packets_per_round"] = float64(coord.TxDelivered+edge.TxDelivered) / rounds
			out["fldgram.ack_packets_per_round"] = float64(coord.AckPackets+edge.AckPackets) / rounds
			out["fldgram.rx_dup_packets"] = float64(coord.RxDupPackets + edge.RxDupPackets)
			out["fldgram.rx_invalid_packets"] = float64(coord.RxInvalidPackets + edge.RxInvalidPackets)
		}
	}

	// One ObserveRound prices one device-round from host-measured phases and
	// that device's share of the measured bytes; compare it with the model's
	// per-device joules.
	out["energy.calibrated_joules"] = ep.CalibratedJ
	out["energy.model_vs_calibrated_ratio"] = ep.Joules / float64(sp.K) / ep.CalibratedJ
	out["trace.overhead_pct"] = 100 * (ep.ToTarget.Seconds()/fastest(plain).ToTarget.Seconds() - 1)
}

// farewellBytes is the MsgShutdown frame each edge reads when the run ends:
// a bare flnet frame header.
const farewellBytes = 5

// edgeByteGap compares what the edges counted on their side of the link with
// what the coordinator reported per round; 0 means both ends tell one story.
func (ep episode) edgeByteGap(sp spec) float64 {
	if sp.Transport == "inproc" {
		return 0
	}
	return math.Abs(float64(ep.Link.EdgeTx-ep.Up)) +
		math.Abs(float64(ep.Link.EdgeRx-ep.Down-int64(farewellBytes*sp.Fleet)))
}
