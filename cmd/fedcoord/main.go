// Command fedcoord is the networked FedAvg coordinator: it listens for
// fededge processes, waits for the expected fleet, then drives synchronous
// training rounds over TCP — the role the laptop plays in the paper's
// prototype.
//
//	fedcoord -listen :7070 -servers 5 -k 3 -e 10 -rounds 20
//	fedcoord -transport dgram -loss 0.1 -listen 127.0.0.1:7070 ...
//
// The coordinator holds the held-out test set (synthetic, same seed the
// edges use to shard), prints per-round loss/accuracy, and shuts the fleet
// down when training completes.
//
// With -transport dgram it listens on a UDP socket and speaks the fldgram
// sliding-window ARQ instead of TCP, giving each edge a socket of its own on
// the listen address (SO_REUSEPORT; where the system has none it exits at
// start-up with the listen error); -mtu bounds the datagram size, and
// -loss injects seeded per-attempt packet loss (p = 1-loss) so retransmission energy is measurable on a loopback bench. Round
// lines then also report attempted vs delivered bytes — the measured 1/p of
// the paper's Eq. 4.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/flnet"
	"eefei/internal/ml"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedcoord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedcoord", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "127.0.0.1:7070", "TCP listen address")
		servers = fs.Int("servers", 5, "edge servers to wait for")
		k       = fs.Int("k", 3, "servers selected per round (K)")
		e       = fs.Int("e", 10, "local epochs per round (E)")
		rounds  = fs.Int("rounds", 20, "global rounds (T)")
		target  = fs.Float64("target", 0, "stop early at this test accuracy (0 = run all rounds)")
		lr      = fs.Float64("lr", 0.5, "initial learning rate")
		decay   = fs.Float64("decay", 0.99, "per-round learning-rate decay")
		seed    = fs.Uint64("seed", 1, "selection seed; must match the edges' data seed")
		side    = fs.Int("side", 8, "synthetic image side (features = side²)")
		samples = fs.Int("samples", 2000, "total synthetic samples (must match edges)")

		minReplies   = fs.Int("min-replies", 0, "tolerate client failures: commit a round with at least this many of K replies (0 = require all K)")
		rejoinGrace  = fs.Duration("rejoin-grace", 0, "let a failed client re-register and retry within a round for this long (0 = drop immediately)")
		roundTimeout = fs.Duration("round-timeout", 5*time.Minute, "per-round deadline")
		joinTimeout  = fs.Duration("join-timeout", 5*time.Minute, "fleet registration deadline")
		retries      = fs.Int("retries", 0, "listen retry attempts if the address is busy (0 = fail fast)")
		retryBase    = fs.Duration("retry-base", 500*time.Millisecond, "initial listen retry backoff")
		retryMax     = fs.Duration("retry-max", 5*time.Second, "listen retry backoff cap")
		trace        = fs.String("trace", "", "write per-round phase timings as JSON lines to this file")
		traceMem     = fs.Bool("trace-mem", false, "sample runtime.MemStats per round into the trace (requires -trace)")
		calibrate    = fs.Bool("calibrate", false, "accumulate a measured per-phase energy ledger from round timings and report drift vs the analytic Pi model")
		upBits       = fs.Int("up-bits", 0, "quantize client replies to this many bits per weight (8 or 16; 0 = lossless predictive delta, raw float64 only on a cold start or when coding would not be smaller)")
		downBits     = fs.Int("down-bits", 0, "quantize the broadcast global as a residual with this many bits per weight (8 or 16; 0 = lossless predictive delta, the raw model only on a cold start or when coding would not be smaller)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		transport = fs.String("transport", "stream", "wire transport: stream (TCP) or dgram (UDP + sliding-window ARQ)")
		mtu       = fs.Int("mtu", fldgram.DefaultMTU, "dgram only: maximum datagram size in bytes")
		loss      = fs.Float64("loss", 0, "dgram only: injected per-attempt data-packet loss probability in [0,1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceMem && *trace == "" {
		return fmt.Errorf("-trace-mem requires -trace")
	}
	p, err := fldgram.ResolveSuccessProb(*transport, *loss)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// Profiling endpoint for the wire-path benchmarks: `go tool pprof
		// http://<addr>/debug/pprof/allocs` while a training run is live.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "fedcoord: pprof:", err)
			}
		}()
	}

	// The coordinator generates the test half of the synthetic universe the
	// edges draw their shards from (-seed), so its test set matches their
	// shards' distribution; the training half is the edges' alone.
	test, err := dataset.SynthesizeTest(*seed, dataset.SyntheticConfig{
		Samples: *samples / 6, Classes: 10, Side: *side, Noise: 0.3, BlobsPerClass: 3, Seed: *seed,
	})
	if err != nil {
		return fmt.Errorf("synthesize test set: %w", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// A busy port (e.g. a previous coordinator still in TIME_WAIT) is worth
	// retrying with backoff; anything else fails like before. The process
	// exits non-zero only once the attempt budget is exhausted.
	policy := flnet.RetryPolicy{
		MaxAttempts: *retries,
		BaseDelay:   *retryBase,
		MaxDelay:    *retryMax,
		Multiplier:  2,
		JitterFrac:  0.2,
	}
	listenOnce := func() (net.Listener, error) {
		if *transport == "dgram" {
			dl, err := fldgram.Listen(*listen, fldgram.Config{MTU: *mtu, Seed: *seed, SuccessProb: p})
			if err != nil {
				return nil, err
			}
			return dl, nil
		}
		return net.Listen("tcp", *listen)
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		ln, err = listenOnce()
		if err == nil {
			break
		}
		// A datagram listener this system or configuration cannot have
		// (ErrTransport: an invalid -mtu, or no SO_REUSEPORT) is not retried.
		if attempt >= *retries || errors.Is(err, fldgram.ErrTransport) {
			return fmt.Errorf("listen %s (after %d attempts): %w", *listen, attempt+1, err)
		}
		fmt.Printf("fedcoord: listen %s failed (%v), retrying…\n", *listen, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(policy.Backoff(attempt+1, nil)):
		}
	}
	coord, err := flnet.NewCoordinator(flnet.CoordinatorConfig{
		FL: fl.Config{
			ClientsPerRound: *k,
			LocalEpochs:     *e,
			LearningRate:    *lr,
			Decay:           *decay,
			Seed:            *seed,
		},
		Classes:           10,
		Features:          *side * *side,
		RoundTimeout:      *roundTimeout,
		JoinTimeout:       *joinTimeout,
		MinReplies:        *minReplies,
		RejoinGrace:       *rejoinGrace,
		UploadQuantBits:   ml.QuantBits(*upBits),
		DownloadQuantBits: ml.QuantBits(*downBits),
	}, ln, test)
	if err != nil {
		return err
	}
	defer coord.Shutdown()

	var tw *fl.TraceWriter
	var observers []fl.RoundObserver
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		defer f.Close()
		tw = fl.NewTraceWriter(f)
		observers = append(observers, tw)
		coord.SetMemSampling(*traceMem)
	}
	dm := energy.DefaultPiDeviceModel()
	var cal *energy.Calibrator
	if *calibrate {
		// Each edge holds an even shard of the synthetic universe; that shard
		// size is the n the training-law attribution uses. The radio model
		// prices upload/download from the measured frame bytes each round
		// carries, so quantized uplinks and residual downlinks show up as
		// real joules saved rather than unchanged phase wall-clock.
		cal, err = energy.NewCalibrator(dm.Power, *e, *samples / *servers,
			energy.WithRadioModel(energy.DefaultWiFiRadioModel()))
		if err != nil {
			return err
		}
		observers = append(observers, cal)
	}
	if obs := fl.Tee(observers...); obs != nil {
		coord.SetRoundObserver(obs)
	}

	fmt.Printf("fedcoord: listening on %s, waiting for %d edge servers…\n", coord.Addr(), *servers)
	if err := coord.WaitForClients(ctx, *servers); err != nil {
		return fmt.Errorf("waiting for fleet: %w", err)
	}
	fmt.Printf("fedcoord: fleet complete, training K=%d E=%d for up to %d rounds\n", *k, *e, *rounds)

	stop := fl.MaxRounds(*rounds)
	if *target > 0 {
		stop = fl.AnyOf(stop, fl.TargetAccuracy(*target))
	}
	start := time.Now()
	for !stop(coord.History()) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if *minReplies > 0 {
			// Give clients that died in earlier rounds a short window to
			// reconnect before selecting; a timeout just means the round
			// runs on the survivors.
			_ = coord.AwaitRoster(ctx, *servers, 5*time.Second)
		}
		rec, err := coord.Round(ctx)
		if err != nil {
			return fmt.Errorf("round %d: %w", len(coord.History()), err)
		}
		line := fmt.Sprintf("round %3d  selected %v  lr %.4f  local-loss %.4f  test-acc %.4f",
			rec.Round, rec.Selected, rec.LearningRate, rec.TrainLoss, rec.TestAccuracy)
		if rec.DownlinkBytes > 0 || rec.UplinkBytes > 0 {
			line += fmt.Sprintf("  down %dB  up %dB", rec.DownlinkBytes, rec.UplinkBytes)
		}
		if del := rec.DownlinkDeliveredBytes + rec.UplinkDeliveredBytes; del > 0 {
			att := rec.DownlinkAttemptBytes + rec.UplinkAttemptBytes
			line += fmt.Sprintf("  wire %dB/%dB (1/p̂ %.3f)", att, del, float64(att)/float64(del))
		}
		if len(rec.Dropped) > 0 || rec.Rejoins > 0 || rec.Retries > 0 {
			line += fmt.Sprintf("  dropped %v  rejoins %d  retries %d",
				rec.Dropped, rec.Rejoins, rec.Retries)
		}
		fmt.Println(line)
	}
	coord.Shutdown()
	history := coord.History()
	last := history[len(history)-1]
	fmt.Printf("fedcoord: done after %d rounds in %v; final accuracy %.4f\n",
		len(history), time.Since(start).Round(time.Millisecond), last.TestAccuracy)
	if tw != nil {
		if err := tw.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("fedcoord: trace: %d rounds written to %s\n", tw.Lines(), *trace)
	}
	if cal != nil {
		led := cal.Ledger()
		fmt.Printf("\nmeasured energy (calibrated from %d observed rounds):\n", cal.Rounds())
		for _, p := range energy.Phases {
			fmt.Printf("  %-9s %10.4f J over %v\n", p, led.Phase(p), cal.PhaseWallClock(p))
		}
		fmt.Printf("  %-9s %10.4f J\n", "total", led.Total())
		fmt.Printf("\nmeasured vs analytic Pi time model:\n")
		for _, d := range cal.Drift(dm.Time) {
			fmt.Printf("  %-9s measured %12v  modeled %12v  drift %+7.1f%%\n",
				d.Phase, d.Measured, d.Modeled, d.Pct)
		}
	}
	return nil
}
