package flnet

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
)

// TestStragglerToleranceDropsDeadClient verifies that with MinReplies set,
// a client that dies after joining does not kill the run: the round
// completes on the survivors and the dead client never gets selected again.
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
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

	// Three healthy edge servers…
	var wg sync.WaitGroup
	for i := 0; i < servers-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{
				Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i + 1),
			})
		}(i)
	}
	// …and one that joins, then dies before serving any request. The dial
	// must run concurrently with WaitForClients, which serves the handshake.
	deadIDCh := make(chan int, 1)
	dialErr := make(chan error, 1)
	go func() {
		dying, err := Dial(EdgeConfig{Addr: coord.Addr().String(), Shard: shards[servers-1], Seed: 99})
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

	// The config asks for K=4 but only 3 are alive after the drop. Run one
	// full-fleet round that hits the dead client and survives on 3 replies.
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

	coord.Shutdown()
	wg.Wait()
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
					cl, err := Dial(EdgeConfig{Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i)})
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
			if n := coord.Connected(); n != 0 {
				t.Errorf("Connected() = %d after the aborted round, want 0", n)
			}
			if err := coord.AwaitRoster(ctx, 2, 50*time.Millisecond); err == nil {
				t.Error("AwaitRoster found two connected clients; both are dead")
			}
		})
	}
}
