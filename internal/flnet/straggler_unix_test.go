//go:build unix

package flnet

import (
	"context"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"eefei/internal/dataset"
	"eefei/internal/fl"
	"eefei/internal/mat"
)

// TestPeerThatNeverReadsCostsNothing: a peer that shrinks its receive buffer
// to 4 KiB and never reads stalls only its own exchange. The round goroutine
// writes every stream request before it awaits any reply, so its write to
// that peer, first in slot order, must not wait on the peer: the send buffer
// register sized holds the whole frame, the other three edges get their
// requests at once, and the round succeeds on them with the mute peer dropped
// at the round timeout.
func TestPeerThatNeverReadsCostsNothing(t *testing.T) {
	const servers = 4
	// Seed 5 draws the full-fleet slot order with client 0, the mute peer,
	// which joins first, in front.
	const seed = 5
	if order := mat.NewRNG(seed).Sample(servers, servers); order[0] != 0 {
		t.Fatalf("seed %d draws slot order %v; want client 0 first", seed, order)
	}
	dcfg := dataset.QuickSyntheticConfig()
	dcfg.Side = 16 // a 20 KiB request frame: five times the mute peer's buffer
	dcfg.Samples = 200
	train, err := dataset.Synthesize(dcfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
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

	// The mute peer shrinks its receive buffer before it connects, so that
	// the window it advertises is as small.
	dialer := net.Dialer{Control: func(_, _ string, raw syscall.RawConn) error {
		var serr error
		if err := raw.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		}); err != nil {
			return err
		}
		return serr
	}}
	mute, err := dialer.DialContext(ctx, "tcp", coord.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer mute.Close()
	if err := writeFrame(mute, MsgJoin, encodeJoin(10)); err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := expectFrame(mute, MsgWelcome, handshakeLimit); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := coord.AwaitRoster(ctx, 1, 5*time.Second); err != nil {
		t.Fatalf("mute peer: %v", err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer coord.Shutdown()
	for i := 1; i < servers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = RunEdgeServer(context.Background(), EdgeConfig{Addr: coord.Addr().String(), Shard: shards[i], Seed: uint64(i)})
		}()
	}
	if err := coord.AwaitRoster(ctx, servers, 10*time.Second); err != nil {
		t.Fatalf("AwaitRoster: %v", err)
	}

	want := 2 * (frameHeaderLen + trainReqHeaderLen + modelBodyLimit(coord.Global()))
	coord.mu.Lock()
	conns := make([]net.Conn, len(coord.clients))
	for i, cl := range coord.clients {
		conns[i] = cl.conn
	}
	coord.mu.Unlock()
	for i, conn := range conns {
		if got := sendBuffer(t, conn); got < want {
			t.Errorf("client %d: SO_SNDBUF %d, want at least two full-model requests (%d)", i, got, want)
		}
	}

	rec, err := coord.Round(ctx)
	if err != nil {
		t.Fatalf("round with a peer that never reads: %v", err)
	}
	if len(rec.Dropped) != 1 || rec.Dropped[0] != 0 {
		t.Errorf("dropped = %v, want [0]: the mute peer", rec.Dropped)
	}
	if len(rec.Selected) != servers-1 {
		t.Errorf("survivors = %v, want %d of them", rec.Selected, servers-1)
	}
}

// sendBuffer reads back a TCP connection's SO_SNDBUF.
func sendBuffer(t *testing.T, conn net.Conn) int {
	t.Helper()
	raw, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatalf("SyscallConn: %v", err)
	}
	var n int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		n, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil {
		t.Fatalf("Control: %v", err)
	}
	if serr != nil {
		t.Fatalf("getsockopt SO_SNDBUF: %v", serr)
	}
	return n
}
