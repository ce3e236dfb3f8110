package main

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eefei/internal/fldgram"
)

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("unknown flag must error")
	}
}

func TestRunBadListen(t *testing.T) {
	if err := run([]string{"-listen", "256.256.256.256:70000"}); err == nil {
		t.Error("unusable listen address must error")
	}
}

// TestFullClusterViaCommands drives the real deployment path: the fedcoord
// run() and two fededge-equivalent clients on loopback. The edges come from
// the flnet layer directly because the fededge command needs the listen
// port, which :0 only reveals to the coordinator.
func TestFullClusterViaCommands(t *testing.T) {
	// Pick a fixed high port; if it is taken the coordinator errors and we
	// skip rather than fail.
	const addr = "127.0.0.1:39621"
	var wg sync.WaitGroup
	var coordErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		coordErr = run([]string{
			"-listen", addr, "-servers", "2", "-k", "2", "-e", "2",
			"-rounds", "2", "-samples", "200", "-calibrate",
		})
	}()

	// Run two edges against it via the fededge main logic equivalent: reuse
	// the command's own flag surface through a fresh process-free call.
	var edgeWg sync.WaitGroup
	edgeErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		edgeWg.Add(1)
		go func(i int) {
			defer edgeWg.Done()
			edgeErrs[i] = runEdgeForTest(addr, i, 2, nil)
		}(i)
	}
	edgeWg.Wait()
	wg.Wait()

	if coordErr != nil {
		if strings.Contains(coordErr.Error(), "address already in use") {
			t.Skipf("port busy: %v", coordErr)
		}
		t.Fatalf("fedcoord run: %v", coordErr)
	}
	for i, err := range edgeErrs {
		if err != nil {
			t.Errorf("edge %d: %v", i, err)
		}
	}
}

// TestDgramClusterViaCommands drives the lossy deployment path end to end:
// fedcoord -transport dgram -loss 0.1 on a loopback UDP socket, with both
// edges dialing through fldgram the way fededge -transport dgram does. The
// ARQ must repair every injected loss so training completes exactly as over
// TCP.
func TestDgramClusterViaCommands(t *testing.T) {
	const addr = "127.0.0.1:39623"
	var wg sync.WaitGroup
	var coordErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		coordErr = run([]string{
			"-transport", "dgram", "-loss", "0.1",
			"-listen", addr, "-servers", "2", "-k", "2", "-e", "2",
			"-rounds", "2", "-samples", "200",
		})
	}()

	var edgeWg sync.WaitGroup
	edgeErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		dial, err := fldgram.Dialer(fldgram.Config{Seed: uint64(i + 1), SuccessProb: 0.9})
		if err != nil {
			t.Fatalf("Dialer: %v", err)
		}
		edgeWg.Add(1)
		go func(i int, dial func(string, time.Duration) (net.Conn, error)) {
			defer edgeWg.Done()
			edgeErrs[i] = runEdgeForTest(addr, i, 2, dial)
		}(i, dial)
	}
	edgeWg.Wait()
	wg.Wait()

	if coordErr != nil {
		if strings.Contains(coordErr.Error(), "address already in use") {
			t.Skipf("port busy: %v", coordErr)
		}
		t.Fatalf("fedcoord run (dgram): %v", coordErr)
	}
	for i, err := range edgeErrs {
		if err != nil {
			t.Errorf("edge %d: %v", i, err)
		}
	}
}

// TestTransportFlagRejections covers the CLI knob contract shared with
// fededge via fldgram.ResolveSuccessProb.
func TestTransportFlagRejections(t *testing.T) {
	for _, args := range [][]string{
		{"-transport", "carrier-pigeon"},
		{"-loss", "0.5"},                        // stream transport
		{"-transport", "dgram", "-loss", "1.0"}, // loss must be < 1
		{"-transport", "dgram", "-loss", "-0.1"},
		{"-transport", "dgram", "-loss", "NaN"},         // NaN passes no bound
		{"-transport", "dgram", "-success-prob", "0.9"}, // no such flag: -loss is the one spelling
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v must be rejected", args)
		}
	}
}

// TestDgramListenErrorExitsAtStartup: a datagram listener that cannot be
// had (here an invalid -mtu; likewise a system without SO_REUSEPORT) fails
// run at once with fldgram.ErrTransport instead of spending -retries on
// backoff.
func TestDgramListenErrorExitsAtStartup(t *testing.T) {
	start := time.Now()
	err := run([]string{"-transport", "dgram", "-listen", "127.0.0.1:0", "-mtu", "10"})
	if !errors.Is(err, fldgram.ErrTransport) {
		t.Fatalf("run = %v, want an fldgram.ErrTransport listen error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("run took %v to fail: the listen error was retried", took)
	}
}
