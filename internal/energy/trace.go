package energy

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"eefei/internal/mat"
)

// ErrTrace is returned (wrapped) for malformed traces or sampling configs.
var ErrTrace = errors.New("energy: invalid trace")

// Sample is one meter reading: elapsed time since trace start and
// instantaneous power.
type Sample struct {
	// T is the offset from the start of the trace.
	T time.Duration
	// Watts is the instantaneous power reading.
	Watts float64
}

// Trace is a time-ordered sequence of power samples, the digital twin of a
// POWER-Z KM001C capture.
type Trace struct {
	// SampleRate is the nominal sampling frequency in Hz (paper: 1000).
	SampleRate float64
	// Samples are the readings in ascending time order.
	Samples []Sample
}

// Duration returns the time span covered by the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].T
}

// Energy integrates the trace with the trapezoid rule and returns joules.
func (t *Trace) Energy() float64 {
	return t.EnergyBetween(0, t.Duration())
}

// EnergyBetween integrates power over [from, to] with the trapezoid rule.
// Boundaries are clamped to the trace extent.
func (t *Trace) EnergyBetween(from, to time.Duration) float64 {
	if len(t.Samples) < 2 || to <= from {
		return 0
	}
	var joules float64
	for i := 1; i < len(t.Samples); i++ {
		a, b := t.Samples[i-1], t.Samples[i]
		if b.T <= from || a.T >= to {
			continue
		}
		// Clip the segment to [from, to], interpolating power linearly.
		lo, hi := a, b
		if lo.T < from {
			lo = Sample{T: from, Watts: interp(a, b, from)}
		}
		if hi.T > to {
			hi = Sample{T: to, Watts: interp(a, b, to)}
		}
		dt := (hi.T - lo.T).Seconds()
		joules += 0.5 * (lo.Watts + hi.Watts) * dt
	}
	return joules
}

// MeanPowerBetween returns average power over [from, to] in watts.
func (t *Trace) MeanPowerBetween(from, to time.Duration) float64 {
	d := (to - from).Seconds()
	if d <= 0 {
		return 0
	}
	return t.EnergyBetween(from, to) / d
}

func interp(a, b Sample, at time.Duration) float64 {
	span := (b.T - a.T).Seconds()
	if span == 0 {
		return a.Watts
	}
	frac := (at - a.T).Seconds() / span
	return a.Watts + frac*(b.Watts-a.Watts)
}

// Validate checks ordering and sanity of the trace.
func (t *Trace) Validate() error {
	if t.SampleRate <= 0 {
		return fmt.Errorf("sample rate %v: %w", t.SampleRate, ErrTrace)
	}
	for i := 1; i < len(t.Samples); i++ {
		if t.Samples[i].T < t.Samples[i-1].T {
			return fmt.Errorf("samples out of order at %d: %w", i, ErrTrace)
		}
	}
	for i, s := range t.Samples {
		if s.Watts < 0 || math.IsNaN(s.Watts) {
			return fmt.Errorf("bad power %v at sample %d: %w", s.Watts, i, ErrTrace)
		}
	}
	return nil
}

// Interval is a labelled span of a schedule or a segmented trace.
type Interval struct {
	Phase Phase
	Start time.Duration
	End   time.Duration
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.End - iv.Start }

// Meter synthesizes traces from phase schedules the way a physical power
// meter would record them: fixed-rate sampling of the scheduled phase power
// plus Gaussian measurement noise.
type Meter struct {
	power PowerModel
	rate  float64
	rng   *mat.RNG
}

// NewMeter returns a meter sampling at rate Hz with the given power model.
func NewMeter(power PowerModel, rate float64, seed uint64) (*Meter, error) {
	if err := power.Validate(); err != nil {
		return nil, err
	}
	if rate <= 0 {
		return nil, fmt.Errorf("sample rate %v: %w", rate, ErrTrace)
	}
	return &Meter{power: power, rate: rate, rng: mat.NewRNG(seed)}, nil
}

// Record samples a schedule of phase intervals into a trace. Intervals must
// be contiguous and ascending; gaps are treated as waiting.
func (m *Meter) Record(schedule []Interval) (*Trace, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("empty schedule: %w", ErrTrace)
	}
	sorted := make([]Interval, len(schedule))
	copy(sorted, schedule)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for i, iv := range sorted {
		if iv.End < iv.Start {
			return nil, fmt.Errorf("interval %d ends before it starts: %w", i, ErrTrace)
		}
	}
	end := sorted[len(sorted)-1].End
	step := time.Duration(float64(time.Second) / m.rate)
	if step <= 0 {
		return nil, fmt.Errorf("sample rate %v too high: %w", m.rate, ErrTrace)
	}
	trace := &Trace{SampleRate: m.rate}
	cursor := 0
	for ts := time.Duration(0); ts <= end; ts += step {
		// Interval ends are inclusive so the sample landing exactly on a
		// boundary reads the finishing phase, matching how a real meter's
		// last in-phase sample behaves.
		for cursor < len(sorted) && sorted[cursor].End < ts {
			cursor++
		}
		watts := m.power.Waiting // gaps read as idle
		if cursor < len(sorted) && sorted[cursor].Start <= ts {
			watts = m.power.Power(sorted[cursor].Phase)
		}
		if m.power.NoiseStdDev > 0 {
			watts += m.rng.NormScaled(0, m.power.NoiseStdDev)
			if watts < 0 {
				watts = 0
			}
		}
		trace.Samples = append(trace.Samples, Sample{T: ts, Watts: watts})
	}
	return trace, nil
}

// RoundSchedule builds the per-round phase schedule of one edge server
// (waiting → download → train → upload, repeated rounds times), the pattern
// Fig. 3 shows for two rounds.
func RoundSchedule(tm TimeModel, epochs, samples, rounds int) []Interval {
	var out []Interval
	var cursor time.Duration
	for r := 0; r < rounds; r++ {
		for _, p := range Phases {
			d := tm.PhaseDuration(p, epochs, samples)
			out = append(out, Interval{Phase: p, Start: cursor, End: cursor + d})
			cursor += d
		}
	}
	return out
}
