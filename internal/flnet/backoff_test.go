package flnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"eefei/internal/mat"
)

func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"first retry uses base", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2}, 1, 100 * time.Millisecond},
		{"second doubles", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2}, 2, 200 * time.Millisecond},
		{"third doubles again", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2}, 3, 400 * time.Millisecond},
		{"fourth", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2}, 4, 800 * time.Millisecond},
		{"cap applies", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}, 10, time.Second},
		{"triple multiplier", RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Minute, Multiplier: 3}, 3, 90 * time.Millisecond},
		{"attempt zero clamps to one", RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}, 0, 50 * time.Millisecond},
		{"zero base defaults to 100ms", RetryPolicy{Multiplier: 2, MaxDelay: time.Minute}, 1, 100 * time.Millisecond},
		{"zero cap defaults to 5s", RetryPolicy{BaseDelay: time.Second, Multiplier: 10}, 5, 5 * time.Second},
		{"sub-1 multiplier defaults to 2", RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Minute, Multiplier: 0.5}, 2, 200 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Backoff(tc.attempt, nil); got != tc.want {
				t.Errorf("Backoff(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := RetryPolicy{
		BaseDelay:  100 * time.Millisecond,
		MaxDelay:   5 * time.Second,
		Multiplier: 2,
		JitterFrac: 0.2,
	}
	rng := mat.NewRNG(7)
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := p.Backoff(attempt, nil) // jitter needs an rng; nil = exact
		got := p.Backoff(attempt, rng)
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if got < lo || got > hi {
			t.Errorf("attempt %d: jittered %v outside [%v, %v]", attempt, got, lo, hi)
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second, Multiplier: 2, JitterFrac: 0.2}
	a, b := mat.NewRNG(99), mat.NewRNG(99)
	for attempt := 1; attempt <= 6; attempt++ {
		if da, db := p.Backoff(attempt, a), p.Backoff(attempt, b); da != db {
			t.Errorf("attempt %d: same-seed RNGs gave %v vs %v", attempt, da, db)
		}
	}
}

func TestRetryPolicyEnabled(t *testing.T) {
	if (RetryPolicy{}).Enabled() {
		t.Error("zero policy must be disabled")
	}
	if !(RetryPolicy{MaxAttempts: 1}).Enabled() {
		t.Error("MaxAttempts 1 must enable retries")
	}
}

func TestSleepCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sleepCtx(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Errorf("sleepCtx on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := sleepCtx(context.Background(), 0); err != nil {
		t.Errorf("zero-duration sleep = %v, want nil", err)
	}
	start := time.Now()
	if err := sleepCtx(context.Background(), 5*time.Millisecond); err != nil {
		t.Errorf("short sleep = %v, want nil", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("sleepCtx returned before the requested duration")
	}
}
