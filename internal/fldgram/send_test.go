package fldgram

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// TestSendFlushMatchesWrite: Send then Flush is Write. Over a lossy pipe
// whose carrier also duplicates, the same frames sent either way deliver the
// same bytes and leave the same Stats on both ends. With reordering added
// they deliver the same bytes as often; attempts and go-backs are not
// compared there, because a held-back packet opens a hole whose repair races
// its late arrival, so they vary between two runs of Write alike.
func TestSendFlushMatchesWrite(t *testing.T) {
	sizes := []int{100, 8 << 10, 62816, 200 << 10}
	var stream []byte
	for i, n := range sizes {
		stream = append(stream, fill(n, uint64(i+1))...)
	}
	run := func(t *testing.T, f faults, split bool) (Stats, Stats) {
		a, b := faultPipe(Config{Seed: 5, SuccessProb: 0.9, RTO: 20 * time.Millisecond}, f)
		defer a.Close()
		defer b.Close()
		got := make([]byte, len(stream))
		done := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(b, got)
			done <- err
		}()
		rest := stream
		for _, n := range sizes {
			frame := rest[:n]
			rest = rest[n:]
			if split {
				if err := a.Send(frame); err != nil {
					t.Fatalf("send: %v", err)
				}
				if k, err := a.Flush(); err != nil || k != n {
					t.Fatalf("flush: %d of %d bytes, %v", k, n, err)
				}
			} else if k, err := a.Write(frame); err != nil || k != n {
				t.Fatalf("write: %d of %d bytes, %v", k, n, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatal("stream corrupted in transit")
		}
		return a.Stats(), b.Stats()
	}
	for _, tc := range []struct {
		name    string
		reorder float64
	}{{"loss+dup", 0}, {"loss+dup+reorder", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			f := faults{dup: 0.1, reorder: tc.reorder}
			aW, bW := run(t, f, false)
			aS, bS := run(t, f, true)
			if aW.TxAttempts == aW.TxDelivered || bW.RxDupPackets == 0 {
				t.Errorf("injected loss or duplication not engaged: %+v / %+v", aW, bW)
			}
			if tc.reorder > 0 {
				if bW.RxAheadPackets == 0 {
					t.Errorf("injected reordering not engaged: %+v", bW)
				}
				if aW.TxDeliveredBytes != aS.TxDeliveredBytes || bW.RxDeliveredBytes != bS.RxDeliveredBytes {
					t.Errorf("delivered %d/%d bytes by Send+Flush, %d/%d by Write",
						aS.TxDeliveredBytes, bS.RxDeliveredBytes, aW.TxDeliveredBytes, bW.RxDeliveredBytes)
				}
				return
			}
			if aW != aS || bW != bS {
				t.Errorf("Send+Flush and Write differ:\n a: %+v\nvs %+v\n b: %+v\nvs %+v", aS, aW, bS, bW)
			}
		})
	}
}

// gatedLink holds its Conn's receive side until open is closed, so no ACK
// reaches the sender before the test lets it.
type gatedLink struct {
	PacketLink
	open chan struct{}
}

func (l *gatedLink) ReadPackets(buf []byte) (int, int, error) {
	<-l.open
	return l.PacketLink.ReadPackets(buf)
}

// gatedPipe is Pipe with end a's receive side gated; the test's cleanup opens
// the gate, so a's receive loop can see its link close.
func gatedPipe(t *testing.T, cfgA, cfgB Config) (a, b *Conn, open func()) {
	la, lb := pipeLinks()
	gate := &gatedLink{PacketLink: la, open: make(chan struct{})}
	a, b = newConn(gate, cfgA, 0), newConn(lb, cfgB, 1)
	opened := false
	open = func() {
		if !opened {
			opened = true
			close(gate.open)
		}
	}
	t.Cleanup(func() {
		open()
		a.Close()
		b.Close()
	})
	return a, b, open
}

// TestSendDoesNotWaitForAcks: Send returns with the first flight on the
// carrier while the carrier loses every ACK from the peer; Flush then waits,
// and fails at the write deadline.
func TestSendDoesNotWaitForAcks(t *testing.T) {
	a, b := faultPipe(Config{Seed: 1}, faults{ackLoss: 1})
	defer a.Close()
	defer b.Close()
	frame := fill(62816, 3)
	deadline := time.Now().Add(200 * time.Millisecond)
	a.SetWriteDeadline(deadline)
	if err := a.Send(frame); err != nil {
		t.Fatalf("send: %v", err)
	}
	if time.Now().After(deadline) {
		t.Fatal("Send waited out the write deadline")
	}
	if s := a.Stats(); s.TxAttempts != int64(fragments(len(frame))) || s.TxDelivered != 0 {
		t.Errorf("after Send: %d attempts, %d delivered; want the whole frame sent, none acknowledged", s.TxAttempts, s.TxDelivered)
	}
	if _, err := a.Flush(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("flush with every ACK lost: %v, want the deadline", err)
	}
	if time.Now().Before(deadline) {
		t.Error("Flush failed before the write deadline")
	}
}

// TestSendTransmitsOneWindow: at an MTU of 300 a raw model is 225 fragments.
// With no ACK let through, Send transmits one window of them and returns;
// Flush delivers the rest once the ACKs come in.
func TestSendTransmitsOneWindow(t *testing.T) {
	cfg := Config{MTU: 300}
	a, b, open := gatedPipe(t, cfg, cfg)
	frame := fill(62816, 4)
	n := (len(frame) + cfg.MTU - headerLen - 1) / (cfg.MTU - headerLen)
	if n != 225 {
		t.Fatalf("%d fragments, want 225", n)
	}
	got := make([]byte, len(frame))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(b, got)
		done <- err
	}()
	if err := a.Send(frame); err != nil {
		t.Fatalf("send: %v", err)
	}
	if s := a.Stats(); s.TxAttempts != window {
		t.Errorf("Send transmitted %d packets, want one window of %d", s.TxAttempts, window)
	}
	open()
	if k, err := a.Flush(); err != nil || k != len(frame) {
		t.Fatalf("flush: %d of %d bytes, %v", k, len(frame), err)
	}
	if err := <-done; err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("read: %v (intact: %v)", err, bytes.Equal(got, frame))
	}
	if s := a.Stats(); s.TxAttempts != int64(n) || s.TxDelivered != int64(n) {
		t.Errorf("after Flush: %d attempts, %d delivered, want %d each", s.TxAttempts, s.TxDelivered, n)
	}
}

// TestSendHoldsWriteLock: a Write issued while a Send is pending waits for
// its Flush, and the stream keeps their order; a Close with a frame pending
// makes Flush return the closed error.
func TestSendHoldsWriteLock(t *testing.T) {
	a, b, open := gatedPipe(t, Config{}, Config{})
	first, second := fill(5000, 5), fill(3000, 6)
	if err := a.Send(first); err != nil {
		t.Fatalf("send: %v", err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(second)
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("Write returned (%v) while a Send was pending", err)
	case <-time.After(50 * time.Millisecond):
	}
	if s := a.Stats(); s.TxAttempts != int64(fragments(len(first))) {
		t.Errorf("%d packets sent while a Send was pending, want only its %d", s.TxAttempts, fragments(len(first)))
	}
	open()
	if k, err := a.Flush(); err != nil || k != len(first) {
		t.Fatalf("flush: %d of %d bytes, %v", k, len(first), err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write after flush: %v", err)
	}
	got := make([]byte, len(first)+len(second))
	if _, err := io.ReadFull(b, got); err != nil || !bytes.Equal(got, append(first, second...)) {
		t.Fatalf("read: %v (in order: %v)", err, bytes.Equal(got, append(first, second...)))
	}

	c, _, _ := gatedPipe(t, Config{}, Config{})
	if err := c.Send(first); err != nil {
		t.Fatalf("send: %v", err)
	}
	c.Close()
	if _, err := c.Flush(); !errors.Is(err, errClosed) {
		t.Fatalf("flush after Close: %v, want the closed error", err)
	}
}
