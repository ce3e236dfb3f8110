package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"eefei/internal/dataset"
	"eefei/internal/energy"
	"eefei/internal/fl"
	"eefei/internal/ml"
	"eefei/internal/sim"
	"eefei/internal/stats"
)

// This file holds the ablations EXPERIMENTS.md reports beyond the paper's
// own figures: the non-IID (label-skew) effect on the optimal K, the
// quantized-upload energy extension, and the multi-seed stability of the
// measured optima.

// SkewPoint is one row of the label-skew ablation.
type SkewPoint struct {
	// Alpha is the label-skew intensity (0 = IID, the paper's setting).
	Alpha float64
	// RoundsByK maps each probed K to its empirical rounds-to-target
	// (-1 when the cap was hit).
	RoundsByK map[int]int
	// EnergyByK maps each probed K to its measured training energy.
	EnergyByK map[int]float64
	// BestK is the measured-energy argmin.
	BestK int
}

// LabelSkewAblation re-runs the K sweep at pinnedE under increasingly
// non-IID shards, dealt and trained at seed. The paper predicts (Fig. 5
// discussion) that K* = 1 is an artifact of identical shard distributions;
// with skewed shards single-client rounds see biased gradients and a larger
// K pays off.
func LabelSkewAblation(setup *Setup, seed uint64, alphas []float64, ks []int, pinnedE int) ([]SkewPoint, error) {
	// The skewed partitions re-deal the union of the IID shards.
	union, err := UnionDataset(setup)
	if err != nil {
		return nil, err
	}
	parts := make([][]*dataset.Dataset, len(alphas))
	for a, alpha := range alphas {
		parts[a] = setup.Shards
		if alpha != 0 {
			if parts[a], err = (dataset.LabelSkewPartitioner{Alpha: alpha, Seed: seed}).Partition(union, setup.Servers); err != nil {
				return nil, fmt.Errorf("skew %.2f: %w", alpha, err)
			}
		}
	}
	// Cell i trains ks[i%len(ks)] clients on partition i/len(ks).
	runs := make([]*sim.Result, len(alphas)*len(ks))
	if err := inOrder(len(runs), func(i int) (err error) {
		a := i / len(ks)
		if runs[i], err = setup.trainOn(parts[a], ks[i%len(ks)], pinnedE, seed, 0, nil); err != nil {
			return fmt.Errorf("skew %.2f: %w", alphas[a], err)
		}
		return nil
	}, nil); err != nil {
		return nil, err
	}
	out := make([]SkewPoint, len(alphas))
	for a, alpha := range alphas {
		pt := SkewPoint{
			Alpha:     alpha,
			RoundsByK: make(map[int]int),
			EnergyByK: make(map[int]float64),
		}
		best := math.Inf(1)
		for j, k := range ks {
			res := runs[a*len(ks)+j]
			rounds, joules := RoundsToAccuracy(res.History, setup.AccuracyTarget), res.TotalJoules()
			pt.RoundsByK[k], pt.EnergyByK[k] = rounds, joules
			// Runs that never hit the target lose to any run that did.
			if rounds >= 0 && joules < best {
				best, pt.BestK = joules, k
			}
		}
		out[a] = pt
	}
	return out, nil
}

// RenderSkew writes the label-skew ablation table.
func RenderSkew(w io.Writer, points []SkewPoint, ks []int) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — label skew vs optimal K (paper: K*=1 under IID only)")
	fmt.Fprintf(&b, "%6s", "alpha")
	for _, k := range ks {
		fmt.Fprintf(&b, " %8s %8s", fmt.Sprintf("T(K=%d)", k), fmt.Sprintf("J(K=%d)", k))
	}
	fmt.Fprintf(&b, " %6s\n", "bestK")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.2f", p.Alpha)
		for _, k := range ks {
			fmt.Fprintf(&b, " %8d %8.1f", p.RoundsByK[k], p.EnergyByK[k])
		}
		fmt.Fprintf(&b, " %6d\n", p.BestK)
	}
	return flush(w, &b)
}

// QuantPoint is one row of the quantized-upload ablation.
type QuantPoint struct {
	// Label names the codec ("float64", "16-bit", "8-bit").
	Label string
	// Bytes is the upload payload size for the experiment's model shape.
	Bytes int
	// UploadJoules is the projected per-round upload energy at that size
	// (energy scales with air time, which scales with bytes).
	UploadJoules float64
	// Accuracy is the test accuracy of the (de)quantized trained model.
	Accuracy float64
}

// QuantizationAblation trains one model federatedly at seed, then measures
// how much upload energy per round each codec saves and what it costs in
// accuracy. Upload energy is prorated from the device model's full-precision
// upload phase by the byte ratio.
func QuantizationAblation(setup *Setup, seed uint64) ([]QuantPoint, error) {
	engine, err := fl.NewEngine(setup.flConfig(5, 10, seed), setup.Shards, fl.WithTestSet(setup.Test))
	if err != nil {
		return nil, err
	}
	if _, err := engine.Run(fl.AnyOf(fl.TargetAccuracy(setup.AccuracyTarget), fl.MaxRounds(setup.RoundCap))); err != nil {
		return nil, err
	}
	model := engine.Global()

	dm := energy.DefaultPiDeviceModel()
	fullBytes := 4 + 12 + model.ParamCount()*8
	fullUpload := dm.UploadEnergy()
	ev := ml.NewEvaluator(1)
	fullAcc, err := ev.Accuracy(model, setup.Test)
	if err != nil {
		return nil, err
	}
	out := []QuantPoint{{
		Label:        "float64",
		Bytes:        fullBytes,
		UploadJoules: fullUpload,
		Accuracy:     fullAcc,
	}}
	for _, bits := range []ml.QuantBits{ml.Quant16, ml.Quant8} {
		data, err := ml.AppendQuantized(nil, model, bits)
		if err != nil {
			return nil, fmt.Errorf("quantize %d: %w", bits, err)
		}
		var back ml.Model
		if err := back.DequantizeInto(data); err != nil {
			return nil, fmt.Errorf("dequantize %d: %w", bits, err)
		}
		acc, err := ev.Accuracy(&back, setup.Test)
		if err != nil {
			return nil, err
		}
		out = append(out, QuantPoint{
			Label:        fmt.Sprintf("%d-bit", bits),
			Bytes:        len(data),
			UploadJoules: fullUpload * float64(len(data)) / float64(fullBytes),
			Accuracy:     acc,
		})
	}
	return out, nil
}

// RenderQuant writes the quantization ablation table.
func RenderQuant(w io.Writer, points []QuantPoint) error {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — quantized model uploads (extension: e^U scales with bytes)")
	fmt.Fprintf(&b, "%-10s %10s %14s %10s\n", "codec", "bytes", "upload J/round", "accuracy")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %10d %14.4f %10.4f\n",
			p.Label, p.Bytes, p.UploadJoules, p.Accuracy)
	}
	return flush(w, &b)
}

// SeedStability trains (K, E) to the target at n seeds, stats.Seeds(seed,
// n), and summarizes the energy, quantifying how much of a measured curve
// is seed noise.
func SeedStability(setup *Setup, seed uint64, k, e, n int) (stats.Summary, error) {
	seeds := stats.Seeds(seed, n)
	cells := make([]cell, n)
	for i, s := range seeds {
		cells[i] = cell{k, e, s}
	}
	runs, err := setup.train(cells)
	if err != nil {
		return stats.Summary{}, err
	}
	joules := make([]float64, n)
	for i, res := range runs {
		if RoundsToAccuracy(res.History, setup.AccuracyTarget) < 0 {
			return stats.Summary{}, fmt.Errorf("seed %d never reached the target", seeds[i])
		}
		joules[i] = res.TotalJoules()
	}
	return stats.Summarize(joules)
}
