package flnet

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/fldgram"
	"eefei/internal/mat"
)

// TestStragglerToleranceDropsDeadClient verifies, over each transport, that
// with MinReplies set a client that dies after joining does not kill the run:
// the round completes on the survivors and lists the dead client as dropped.
func TestStragglerToleranceDropsDeadClient(t *testing.T) {
	const servers = 4
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 400
	train, test, err := dataset.SynthesizePair(dcfg, dcfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for _, tt := range []struct {
		name   string
		listen func() (net.Listener, error)
		// dialer returns edge i's dialer; nil is plain TCP.
		dialer func(i int) (func(string, time.Duration) (net.Conn, error), error)
	}{
		{"tcp", func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }, nil},
		{"fldgram",
			func() (net.Listener, error) {
				return fldgram.Listen("127.0.0.1:0", fldgram.Config{Seed: 1, SuccessProb: 1})
			},
			func(i int) (func(string, time.Duration) (net.Conn, error), error) {
				return fldgram.Dialer(fldgram.Config{Seed: uint64(i + 2), SuccessProb: 1})
			}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ln, err := tt.listen()
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				FL: fl.Config{
					// Select everyone each round so the dead client is hit round 0.
					ClientsPerRound: servers,
					LocalEpochs:     2,
					LearningRate:    0.2,
					Seed:            1,
				},
				Classes:      train.Classes,
				Features:     train.Dim(),
				RoundTimeout: 5 * time.Second,
				JoinTimeout:  10 * time.Second,
				MinReplies:   servers - 1,
			}, ln, test)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer coord.Shutdown()
			edge := func(i int, seed uint64) EdgeConfig {
				cfg := EdgeConfig{Addr: coord.Addr().String(), Shard: shards[i], Seed: seed}
				if tt.dialer != nil {
					dial, err := tt.dialer(i)
					if err != nil {
						t.Fatalf("dialer: %v", err)
					}
					cfg.Dial = dial
				}
				return cfg
			}

			// Three healthy edge servers…
			var wg sync.WaitGroup
			for i := 0; i < servers-1; i++ {
				cfg := edge(i, uint64(i+1))
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = RunEdgeServer(context.Background(), cfg)
				}()
			}
			// …and one that joins, then dies before serving any request. The
			// dial must run concurrently with WaitForClients, which serves the
			// handshake.
			deadIDCh := make(chan int, 1)
			dialErr := make(chan error, 1)
			dyingCfg := edge(servers-1, 99)
			go func() {
				dying, err := dialAs(dyingCfg, -1)
				if err != nil {
					dialErr <- err
					return
				}
				deadIDCh <- dying.ID()
				dying.Close()
				dialErr <- nil
			}()

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := coord.WaitForClients(ctx, servers); err != nil {
				t.Fatalf("WaitForClients: %v", err)
			}
			if err := <-dialErr; err != nil {
				t.Fatalf("Dial dying client: %v", err)
			}
			deadID := <-deadIDCh

			// The config asks for K=4 but only 3 are alive after the drop. Run
			// one full-fleet round that hits the dead client and survives on 3
			// replies.
			rec, err := coord.Round(ctx)
			if err != nil {
				t.Fatalf("first round with a dead client: %v", err)
			}
			if len(rec.Selected) != servers-1 {
				t.Errorf("survivors = %v, want %d of them", rec.Selected, servers-1)
			}
			for _, id := range rec.Selected {
				if id == deadID {
					t.Errorf("dead client %d listed among survivors %v", deadID, rec.Selected)
				}
			}
			if len(rec.Dropped) != 1 || rec.Dropped[0] != deadID {
				t.Errorf("dropped = %v, want [%d]", rec.Dropped, deadID)
			}

			coord.Shutdown()
			wg.Wait()
		})
	}
}

// TestStragglerToleranceMinRepliesEnforced verifies that a round still fails
// when fewer than MinReplies clients respond — and that the aborted round,
// with tolerance on or off, leaves no dead peer on the roster: the failed
// slots are disconnected, so AwaitRoster waits for real rejoins instead of
// returning at once and the next selection cannot pick the dead connections.
// The abort's error names both failed clients.
func TestStragglerToleranceMinRepliesEnforced(t *testing.T) {
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 100
	train, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for _, tt := range []struct {
		name       string
		minReplies int
	}{
		{"quorum of both", 2},
		{"tolerance off", 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			coord, err := NewCoordinator(CoordinatorConfig{
				FL:           fl.Config{ClientsPerRound: 2, LocalEpochs: 1, LearningRate: 0.1, Seed: 1},
				Classes:      train.Classes,
				Features:     train.Dim(),
				RoundTimeout: 2 * time.Second,
				JoinTimeout:  5 * time.Second,
				MinReplies:   tt.minReplies,
			}, ln, nil)
			if err != nil {
				t.Fatalf("NewCoordinator: %v", err)
			}
			defer coord.Shutdown()

			// Both clients join, then immediately die. Dials must run
			// concurrently with WaitForClients: the Welcome handshake is
			// served from there.
			dialErrs := make(chan error, 2)
			go func() {
				for i := 0; i < 2; i++ {
					cl, err := dialAs(EdgeConfig{Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i)}, -1)
					if err != nil {
						dialErrs <- err
						return
					}
					cl.Close()
				}
				dialErrs <- nil
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := coord.WaitForClients(ctx, 2); err != nil {
				t.Fatalf("WaitForClients: %v", err)
			}
			if err := <-dialErrs; err != nil {
				t.Fatalf("Dial: %v", err)
			}
			_, err = coord.Round(ctx)
			if err == nil {
				t.Fatal("round with zero replies must fail")
			}
			for _, id := range []string{"client 0 ", "client 1 "} {
				if !strings.Contains(err.Error(), id) {
					t.Errorf("aborted round's error does not name %q: %v", id, err)
				}
			}
			if tt.minReplies > 0 && !errors.Is(err, ErrCoordinator) {
				t.Errorf("quorum abort = %v, want it to wrap ErrCoordinator", err)
			}
			if n := connected(coord); n != 0 {
				t.Errorf("connected = %d after the aborted round, want 0", n)
			}
			if err := coord.AwaitRoster(ctx, 2, 50*time.Millisecond); err == nil {
				t.Error("AwaitRoster found two connected clients; both are dead")
			}
		})
	}
}

// TestSilentDatagramPeerCostsNothing: a datagram peer that vanishes after
// joining, without a FIN, stalls only its own exchange. It joins through a
// UDP relay that the test then cuts, so the coordinator's datagrams to it go
// nowhere and nothing comes back. The round goroutine sends every request
// before it awaits any acknowledgment, so its send to the silent peer, first
// in slot order, returns at once: the other three edges get their requests,
// and the round succeeds on them with the silent peer dropped at the round
// timeout.
func TestSilentDatagramPeerCostsNothing(t *testing.T) {
	const servers = 4
	// Seed 5 draws the full-fleet slot order with client 0, the silent peer,
	// which joins first, in front.
	const seed = 5
	if order := mat.NewRNG(seed).Sample(servers, servers); order[0] != 0 {
		t.Fatalf("seed %d draws slot order %v; want client 0 first", seed, order)
	}
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Samples = 200
	train, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	shards, err := dataset.IIDPartitioner{Seed: 1}.Partition(train, servers)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	ln, err := fldgram.Listen("127.0.0.1:0", fldgram.Config{Seed: 1, SuccessProb: 1})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		FL:           fl.Config{ClientsPerRound: servers, LocalEpochs: 1, LearningRate: 0.1, Seed: seed},
		Classes:      train.Classes,
		Features:     train.Dim(),
		RoundTimeout: 2 * time.Second,
		JoinTimeout:  10 * time.Second,
		MinReplies:   servers - 1,
	}, ln, nil)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.AwaitRoster(ctx, 0, time.Second); err != nil {
		t.Fatalf("start accept loop: %v", err)
	}
	dialer := func(i int) func(string, time.Duration) (net.Conn, error) {
		dial, err := fldgram.Dialer(fldgram.Config{Seed: uint64(i + 2), SuccessProb: 1})
		if err != nil {
			t.Fatalf("dialer: %v", err)
		}
		return dial
	}

	relay := newUDPRelay(t, coord.Addr().String())
	defer relay.close()
	viaRelay := dialer(0)
	silent, err := dialAs(EdgeConfig{
		Addr:  coord.Addr().String(),
		Shard: shards[0],
		Dial: func(_ string, timeout time.Duration) (net.Conn, error) {
			return viaRelay(relay.addr(), timeout)
		},
	}, -1)
	if err != nil {
		t.Fatalf("silent peer join: %v", err)
	}
	defer silent.Close()
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("silent peer: %v", err)
	}
	relay.cut.Store(true)

	var wg sync.WaitGroup
	defer wg.Wait()
	defer coord.Shutdown()
	for i := 1; i < servers; i++ {
		cfg := EdgeConfig{Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i), Dial: dialer(i)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), cfg)
		}()
	}
	if err := coord.AwaitRoster(ctx, servers, 10*time.Second); err != nil {
		t.Fatalf("AwaitRoster: %v", err)
	}

	rec, err := coord.Round(ctx)
	if err != nil {
		t.Fatalf("round with a silent datagram peer: %v", err)
	}
	if len(rec.Dropped) != 1 || rec.Dropped[0] != 0 {
		t.Errorf("dropped = %v, want [0]: the silent peer", rec.Dropped)
	}
	if len(rec.Selected) != servers-1 {
		t.Errorf("survivors = %v, want %d of them", rec.Selected, servers-1)
	}
}

// udpRelay forwards datagrams between one client and a server until cut,
// after which it swallows them: to either end the other has gone silent,
// with no FIN and no ICMP error.
type udpRelay struct {
	front *net.UDPConn // the client's side, where it dials
	back  *net.UDPConn // connected to the server
	cut   atomic.Bool
	wg    sync.WaitGroup
}

func newUDPRelay(t *testing.T, server string) *udpRelay {
	t.Helper()
	front, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("relay listen: %v", err)
	}
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		t.Fatalf("relay resolve: %v", err)
	}
	back, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatalf("relay dial: %v", err)
	}
	r := &udpRelay{front: front, back: back}
	client := make(chan netip.AddrPort, 1)
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		buf := make([]byte, 1<<16)
		for known := false; ; {
			n, from, err := front.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if !known {
				known = true
				client <- from
			}
			if !r.cut.Load() {
				_, _ = back.Write(buf[:n]) // lost on failure, as on any carrier
			}
		}
	}()
	go func() {
		defer r.wg.Done()
		buf := make([]byte, 1<<16)
		var to netip.AddrPort
		for {
			n, err := back.Read(buf)
			if err != nil {
				return
			}
			if !to.IsValid() {
				to = <-client // the server answers only a client that sent first
			}
			if !r.cut.Load() {
				_, _ = front.WriteToUDPAddrPort(buf[:n], to) // likewise
			}
		}
	}()
	return r
}

func (r *udpRelay) addr() string { return r.front.LocalAddr().String() }

func (r *udpRelay) close() {
	r.front.Close()
	r.back.Close()
	r.wg.Wait()
}
