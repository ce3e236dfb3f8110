package flnet

import (
	"context"
	"fmt"
	"math"
	"time"

	"eefei/internal/mat"
)

// RetryPolicy governs how an edge server redials and re-registers after a
// connection failure: capped exponential backoff with deterministic,
// seed-driven jitter. The zero value disables retries entirely (a single
// attempt, fail fast — the pre-resilience behaviour).
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed connection attempts
	// tolerated before giving up; 0 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Zero selects 100 ms.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff. Zero selects 5 s.
	MaxDelay time.Duration
	// Multiplier grows the delay per consecutive failure. Values below 1
	// (including zero) select 2.
	Multiplier float64
	// JitterFrac spreads each delay uniformly over ±this fraction, drawn
	// from the caller's seeded RNG so retry schedules stay reproducible.
	// Zero disables jitter.
	JitterFrac float64
}

// Enabled reports whether the policy performs any retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// Backoff returns the delay before retry number attempt (1-based). The rng
// supplies the jitter draw; a nil rng disables jitter. Identical (policy,
// attempt, rng state) triples produce identical delays.
func (p RetryPolicy) Backoff(attempt int, rng *mat.RNG) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(base) * math.Pow(mult, float64(attempt-1))
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if p.JitterFrac > 0 && rng != nil {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// sleepCtx pauses for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("backoff: %w", err)
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("backoff: %w", ctx.Err())
	case <-t.C:
		return nil
	}
}
