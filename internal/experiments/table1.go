package experiments

import (
	"fmt"
	"io"
	"strings"

	"eefei/internal/energy"
)

// Table1Row is one row of Table I: the duration of local-training step (3)
// for a given (E, n_k), simulated by our calibrated device model next to the
// paper's measured value.
type Table1Row struct {
	Epochs  int
	Samples int
	// SimSeconds is the duration our device model produces, measured from a
	// recorded power trace (not read off the analytic law, so the full
	// meter → trace → segmentation pipeline is exercised).
	SimSeconds float64
	// PaperSeconds is the published measurement.
	PaperSeconds float64
}

// Table1Result is the full reproduction of Table I plus the least-squares
// coefficient fits (Section VI-B) from both data sources.
type Table1Result struct {
	Rows []Table1Row
	// SimC0, SimC1 are fitted from our simulated measurements.
	SimC0, SimC1 float64
	// PaperC0, PaperC1 are fitted from the paper's own rows (the paper
	// reports 7.79e-5 and 3.34e-3).
	PaperC0, PaperC1 float64
}

// Table1 reproduces Table I: it "measures" step-(3) durations with the
// simulated 1 kHz meter for every (E, n_k) combination of the paper and fits
// the c0/c1 energy coefficients from the resulting observations.
func Table1(seed uint64) (*Table1Result, error) {
	dm := energy.DefaultPiDeviceModel()
	meter, err := energy.NewMeter(dm.Power, 1000, seed)
	if err != nil {
		return nil, fmt.Errorf("table 1 meter: %w", err)
	}
	paperRows := energy.PaperTableI()
	res := &Table1Result{Rows: make([]Table1Row, 0, len(paperRows))}
	var simObs []energy.TrainObservation
	for _, p := range paperRows {
		obs, err := energy.MeasureTraining(meter, dm.Time, p.Epochs, p.Samples)
		if err != nil {
			return nil, fmt.Errorf("table 1 E=%d n=%d: %w", p.Epochs, p.Samples, err)
		}
		simObs = append(simObs, obs)
		res.Rows = append(res.Rows, Table1Row{
			Epochs:       p.Epochs,
			Samples:      p.Samples,
			SimSeconds:   obs.Duration.Seconds(),
			PaperSeconds: p.Duration.Seconds(),
		})
	}
	res.SimC0, res.SimC1, err = energy.FitCoefficients(simObs)
	if err != nil {
		return nil, fmt.Errorf("table 1 sim fit: %w", err)
	}
	res.PaperC0, res.PaperC1, err = energy.FitCoefficients(paperRows)
	if err != nil {
		return nil, fmt.Errorf("table 1 paper fit: %w", err)
	}
	return res, nil
}

// Render writes the table in the paper's layout plus the fit summary.
func (r *Table1Result) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — duration of local training step (3)\n")
	fmt.Fprintf(&b, "%4s %6s %14s %14s %8s\n", "E", "n_k", "sim (s)", "paper (s)", "Δ%")
	for _, row := range r.Rows {
		delta := 100 * (row.SimSeconds - row.PaperSeconds) / row.PaperSeconds
		fmt.Fprintf(&b, "%4d %6d %14.4f %14.4f %+7.1f\n",
			row.Epochs, row.Samples, row.SimSeconds, row.PaperSeconds, delta)
	}
	fmt.Fprintf(&b, "fit  c0: sim %.3e  paper-rows %.3e  (published 7.79e-05)\n"+
		"fit  c1: sim %.3e  paper-rows %.3e  (published 3.34e-03)\n",
		r.SimC0, r.PaperC0, r.SimC1, r.PaperC1)
	return flush(w, &b)
}

// Table2Row is one line of Table II, the simulation configuration echo.
type Table2Row struct{ Key, Value string }

// Table2 reproduces Table II verbatim: the model/training configuration the
// evaluation uses.
func Table2() []Table2Row {
	return []Table2Row{
		{"Model Type", "Multinomial Logistic Regression"},
		{"Input Size", "784*1"},
		{"Output Size", "10*1"},
		{"Activation Function", "Sigmoid"},
		{"Optimizer", "SGD, learning rate 0.01 with decay rate 0.99"},
	}
}

// RenderTable2 writes Table II.
func RenderTable2(w io.Writer, rows []Table2Row) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II — simulation configuration")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %s\n", r.Key, r.Value)
	}
	return flush(w, &b)
}
