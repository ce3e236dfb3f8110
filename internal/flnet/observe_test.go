package flnet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"eefei/internal/fl"
)

// TestCoordinatorObserver attaches the fl.RoundObserver to a live loopback
// cluster and checks the networked phase/fault telemetry: one record per
// completed round, Workers = K dispatch targets, train/evaluate phases
// timed (both network legs land in train), fault counters mirroring the
// RoundRecord, and the shared TraceWriter sink collecting every round.
func TestCoordinatorObserver(t *testing.T) {
	coord, wait := startCluster(t, 4, 3, 2)
	var buf bytes.Buffer
	tw := fl.NewTraceWriter(&buf)
	var stats []fl.RoundStats
	coord.SetRoundObserver(fl.FuncObserver(func(s fl.RoundStats) {
		stats = append(stats, s)
		tw.ObserveRound(s)
	}))
	coord.SetMemSampling(true)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := coord.WaitForClients(ctx, 4); err != nil {
		t.Fatalf("WaitForClients: %v", err)
	}
	const rounds = 3
	history, err := runRounds(ctx, coord, fl.MaxRounds(rounds))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	coord.Shutdown()
	for i, err := range wait() {
		if err != nil {
			t.Errorf("edge server %d: %v", i, err)
		}
	}

	if len(stats) != rounds {
		t.Fatalf("observed %d rounds, want %d", len(stats), rounds)
	}
	for i, s := range stats {
		rec := history[i]
		if s.Round != rec.Round {
			t.Errorf("stats[%d].Round = %d, record has %d", i, s.Round, rec.Round)
		}
		if s.Workers != 3 {
			t.Errorf("round %d: workers = %d, want K=3 dispatch targets", i, s.Workers)
		}
		if s.Train <= 0 || s.Evaluate <= 0 {
			t.Errorf("round %d: train %v / evaluate %v not timed", i, s.Train, s.Evaluate)
		}
		if sum := s.Select + s.Train + s.Aggregate + s.Evaluate; s.Total < sum {
			t.Errorf("round %d: total %v below phase sum %v", i, s.Total, sum)
		}
		if s.Dropped != len(rec.Dropped) || s.Rejoins != rec.Rejoins || s.Retries != rec.Retries {
			t.Errorf("round %d: fault telemetry (dropped %d, rejoins %d, retries %d) disagrees with record %+v",
				i, s.Dropped, s.Rejoins, s.Retries, rec)
		}
		if !s.MemSampled {
			t.Errorf("round %d: memstats not sampled", i)
		}
	}
	if tw.Err() != nil || tw.Lines() != rounds {
		t.Errorf("trace sink: %d lines, err %v", tw.Lines(), tw.Err())
	}
}
