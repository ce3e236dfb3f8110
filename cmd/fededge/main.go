// Command fededge is one networked edge server: it synthesizes (or loads)
// its local data shard, dials the coordinator, and serves local-training
// requests until shut down — the role each Raspberry Pi plays in the
// paper's prototype.
//
//	fededge -coordinator 127.0.0.1:7070 -id 0 -of 5
//	fededge -coordinator 10.0.0.2:7070 -id 3 -of 20 -mnist-images ... -mnist-labels ...
//	fededge -transport dgram -loss 0.1 -coordinator 127.0.0.1:7070 -id 0 -of 5
//
// All edges of one experiment must share -of, -samples, -side and -seed so
// their shards partition the same synthetic universe the coordinator's test
// set is drawn from. With -transport dgram the edge dials the coordinator's
// UDP socket and speaks the fldgram sliding-window ARQ; -mtu and -loss
// mirror the coordinator's knobs, and at exit the edge prints
// its uplink attempted-vs-delivered bytes plus the measured expected energy
// per delivered byte against the analytic ρ/p of the paper's Eq. 4.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fldgram"
	"eefei/internal/flnet"
	"eefei/internal/iot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fededge:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fededge", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "127.0.0.1:7070", "coordinator TCP address")
		id          = fs.Int("id", 0, "this server's shard index")
		of          = fs.Int("of", 5, "total number of edge servers")
		samples     = fs.Int("samples", 2000, "total synthetic samples (must match coordinator)")
		side        = fs.Int("side", 8, "synthetic image side")
		seed        = fs.Uint64("seed", 1, "data seed (must match coordinator)")
		batch       = fs.Int("batch", 0, "local mini-batch size (0 = full batch)")
		imagesPath  = fs.String("mnist-images", "", "optional real MNIST images IDX file")
		labelsPath  = fs.String("mnist-labels", "", "optional real MNIST labels IDX file")
		retries     = fs.Int("retries", 3, "reconnect attempts after a lost coordinator link (0 = fail fast)")
		retryBase   = fs.Duration("retry-base", 100*time.Millisecond, "initial reconnect backoff")
		retryMax    = fs.Duration("retry-max", 2*time.Second, "reconnect backoff cap")

		transport = fs.String("transport", "stream", "wire transport: stream (TCP) or dgram (UDP + sliding-window ARQ)")
		mtu       = fs.Int("mtu", fldgram.DefaultMTU, "dgram only: maximum datagram size in bytes")
		loss      = fs.Float64("loss", 0, "dgram only: injected per-attempt data-packet loss probability in [0,1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 0 || *id >= *of {
		return fmt.Errorf("id %d outside fleet of %d", *id, *of)
	}
	p, err := fldgram.ResolveSuccessProb(*transport, *loss)
	if err != nil {
		return err
	}

	var train *dataset.Dataset
	if *imagesPath != "" && *labelsPath != "" {
		train, err = dataset.LoadMNIST(*imagesPath, *labelsPath)
		if err != nil {
			return fmt.Errorf("load MNIST: %w", err)
		}
	} else {
		train, err = dataset.Synthesize(dataset.SyntheticConfig{
			Samples: *samples, Classes: 10, Side: *side, Noise: 0.3, BlobsPerClass: 3, Seed: *seed,
		})
		if err != nil {
			return fmt.Errorf("synthesize: %w", err)
		}
	}
	shards, err := dataset.IIDPartitioner{Seed: *seed}.Partition(train, *of)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	shard := shards[*id]

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// The retry policy makes the edge survive coordinator restarts and
	// transient network failures: lost connections are redialed with capped
	// exponential backoff and the edge re-registers under its original
	// client id. The process exits non-zero only once the attempt budget is
	// exhausted (or on a local training failure).
	fmt.Printf("fededge %d/%d: %d samples, dialing %s (up to %d reconnect attempts)\n",
		*id, *of, shard.Len(), *coordinator, *retries)
	// Frame-level byte counters: what this edge's radio would actually have
	// transferred, printed at exit so a bench run can compare downlink
	// codecs byte for byte.
	var wire flnet.WireCounters
	ecfg := flnet.EdgeConfig{
		Addr:      *coordinator,
		Shard:     shard,
		BatchSize: *batch,
		Seed:      *seed + uint64(*id)*65537,
		Counters:  &wire,
		Retry: flnet.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryMax,
			Multiplier:  2,
			JitterFrac:  0.2,
		},
	}
	// Every Conn this edge dials (a reconnect dials a fresh one), so their
	// packet counters can be summed at exit. RunEdgeServer dials on this
	// goroutine.
	var conns []*fldgram.Conn
	if *transport == "dgram" {
		dial, err := fldgram.Dialer(fldgram.Config{
			MTU:         *mtu,
			Seed:        *seed + uint64(*id)*65537,
			SuccessProb: p,
		})
		if err != nil {
			return err
		}
		ecfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := dial(addr, timeout)
			if err == nil {
				conns = append(conns, c.(*fldgram.Conn))
			}
			return c, err
		}
	}
	err = flnet.RunEdgeServer(ctx, ecfg)
	fmt.Printf("fededge %d/%d: wire bytes rx %d (downlink) tx %d (uplink)\n",
		*id, *of, wire.Rx(), wire.Tx())
	if *transport == "dgram" {
		var attempts, attemptBytes, delivered, deliveredBytes int64
		for _, c := range conns {
			s := c.Stats()
			attempts += s.TxAttempts
			attemptBytes += s.TxAttemptBytes
			delivered += s.TxDelivered
			deliveredBytes += s.TxDeliveredBytes
		}
		fmt.Printf("fededge %d/%d: dgram uplink %d/%d packets, %dB/%dB attempted/delivered\n",
			*id, *of, attempts, delivered, attemptBytes, deliveredBytes)
		if deliveredBytes > 0 {
			rho := iot.NBIoTJoulesPerByte
			measured := rho * float64(attemptBytes) / float64(deliveredBytes)
			fmt.Printf("fededge %d/%d: energy per delivered byte: measured %.6g J (ρ·attempted/delivered) vs analytic ρ/p %.6g J at p=%.4f\n",
				*id, *of, measured, rho/p, p)
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("fededge %d/%d: shut down cleanly\n", *id, *of)
	return nil
}
