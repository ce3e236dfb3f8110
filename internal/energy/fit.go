package energy

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"eefei/internal/mat"
)

// ErrFit is returned (wrapped) when a coefficient fit cannot be performed.
var ErrFit = errors.New("energy: fit failed")

// TrainObservation is one measured training run: E epochs over n samples
// took Duration and consumed Joules (training phase only). Table I of the
// paper is a set of these with the durations listed and energy implied by
// the 5.553 W training power.
type TrainObservation struct {
	Epochs   int
	Samples  int
	Duration time.Duration
	Joules   float64
}

// FitCoefficients recovers the paper's (c0, c1) from measured training
// energies by least squares on the model e = c0·E·n + c1·E. This is the fit
// that produced c0 = 7.79e-5 and c1 = 3.34e-3 in Section VI-B.
func FitCoefficients(obs []TrainObservation) (c0, c1 float64, err error) {
	return fitTableI(obs, "coefficient", func(o TrainObservation) float64 { return o.Joules })
}

// FitDurations recovers the duration law t = a0·E·n + a1·E from measured
// step-(3) durations, exactly the Table-I fit.
func FitDurations(obs []TrainObservation) (perSample, perEpoch time.Duration, err error) {
	a0, a1, err := fitTableI(obs, "duration", func(o TrainObservation) float64 { return o.Duration.Seconds() })
	if err != nil {
		return 0, 0, err
	}
	return time.Duration(a0 * float64(time.Second)), time.Duration(a1 * float64(time.Second)), nil
}

// fitTableI is the one least-squares fit of the Table-I law y = a0·E·n + a1·E,
// with y the observed column of each observation; what names the fit in its
// errors.
func fitTableI(obs []TrainObservation, what string, y func(TrainObservation) float64) (a0, a1 float64, err error) {
	if len(obs) < 2 {
		return 0, 0, fmt.Errorf("%d observations, need >= 2: %w", len(obs), ErrFit)
	}
	design := mat.NewDense(len(obs), 2)
	ys := make([]float64, len(obs))
	for i, o := range obs {
		if o.Epochs <= 0 {
			return 0, 0, fmt.Errorf("observation %d has E=%d: %w", i, o.Epochs, ErrFit)
		}
		design.Set(i, 0, float64(o.Epochs)*float64(o.Samples))
		design.Set(i, 1, float64(o.Epochs))
		ys[i] = y(o)
	}
	coef, err := mat.QRLeastSquares(design, ys)
	if err != nil {
		return 0, 0, fmt.Errorf("%s fit: %w", what, err)
	}
	return coef[0], coef[1], nil
}

// MeasureTraining generates a measured-style observation by recording a
// training-phase trace with the given meter and integrating it — the
// software analogue of clamping the POWER-Z onto a Pi and running E epochs.
func MeasureTraining(meter *Meter, tm TimeModel, epochs, samples int) (TrainObservation, error) {
	dur := tm.TrainDuration(epochs, samples)
	trace, err := meter.Record([]Interval{{Phase: PhaseTrain, Start: 0, End: dur}})
	if err != nil {
		return TrainObservation{}, fmt.Errorf("measure training: %w", err)
	}
	return TrainObservation{
		Epochs:   epochs,
		Samples:  samples,
		Duration: dur,
		Joules:   trace.Energy(),
	}, nil
}

// PaperTableI returns the twelve (E, n_k, duration) rows of the paper's
// Table I verbatim, with energy filled in from the 5.553 W training power.
// Experiments use it as ground truth to compare our simulated durations
// against.
func PaperTableI() []TrainObservation {
	const trainWatts = 5.553
	rows := []struct {
		e, n int
		sec  float64
	}{
		{10, 100, 0.0197}, {10, 500, 0.0749}, {10, 1000, 0.1471}, {10, 2000, 0.2855},
		{20, 100, 0.0403}, {20, 500, 0.1508}, {20, 1000, 0.2912}, {20, 2000, 0.5721},
		{40, 100, 0.0799}, {40, 500, 0.3026}, {40, 1000, 0.5554}, {40, 2000, 1.1451},
	}
	out := make([]TrainObservation, len(rows))
	for i, r := range rows {
		d := time.Duration(r.sec * float64(time.Second))
		out[i] = TrainObservation{
			Epochs:   r.e,
			Samples:  r.n,
			Duration: d,
			Joules:   trainWatts * r.sec,
		}
	}
	return out
}

// Ledger accumulates energy by phase across a whole training run; the
// simulator posts every phase of every device round here, giving the
// experiment harness a single place to read totals from.
type Ledger struct {
	joules map[Phase]float64
	// rounds counts completed global coordination rounds.
	rounds int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{joules: make(map[Phase]float64)}
}

// Add posts j joules of phase p.
func (l *Ledger) Add(p Phase, j float64) {
	l.joules[p] += j
}

// AddRound increments the completed-round counter.
func (l *Ledger) AddRound() { l.rounds++ }

// Rounds returns how many rounds have been posted.
func (l *Ledger) Rounds() int { return l.rounds }

// Phase returns the accumulated joules for one phase.
func (l *Ledger) Phase(p Phase) float64 { return l.joules[p] }

// Total returns the accumulated joules across all phases. Phases are summed
// in a fixed order (canonical Phases first, any other keys ascending):
// ranging over the map directly would randomize the float addition order and
// make the last bits of the total differ between identical runs.
func (l *Ledger) Total() float64 {
	var t float64
	for _, p := range Phases {
		t += l.joules[p]
	}
	var extras []Phase
	for p := range l.joules {
		if !slices.Contains(Phases, p) {
			extras = append(extras, p)
		}
	}
	slices.Sort(extras)
	for _, p := range extras {
		t += l.joules[p]
	}
	return t
}

// String summarizes the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("Ledger{rounds=%d wait=%.2fJ down=%.2fJ train=%.2fJ up=%.2fJ total=%.2fJ}",
		l.rounds, l.Phase(PhaseWaiting), l.Phase(PhaseDownload),
		l.Phase(PhaseTrain), l.Phase(PhaseUpload), l.Total())
}
