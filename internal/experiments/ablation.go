package experiments

import (
	"fmt"
	"io"
	"math"

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

// LabelSkewAblation re-runs the K sweep under increasingly non-IID shards.
// The paper predicts (Fig. 5 discussion) that K* = 1 is an artifact of
// identical shard distributions; with skewed shards single-client rounds
// see biased gradients and a larger K pays off.
func LabelSkewAblation(setup *Setup, alphas []float64, ks []int, pinnedE int) ([]SkewPoint, error) {
	if len(alphas) == 0 {
		alphas = []float64{0, 0.5, 0.9}
	}
	if len(ks) == 0 {
		ks = []int{1, 4, 16}
	}
	if pinnedE <= 0 {
		pinnedE = 10
	}
	// The skewed partitions re-deal the union of the IID shards.
	union, err := UnionDataset(setup)
	if err != nil {
		return nil, err
	}
	var out []SkewPoint
	for _, alpha := range alphas {
		var shards []*dataset.Dataset
		if alpha == 0 {
			shards = setup.Shards
		} else {
			shards, err = dataset.LabelSkewPartitioner{Alpha: alpha, Seed: 1}.Partition(union, setup.Servers)
			if err != nil {
				return nil, fmt.Errorf("skew %.2f: %w", alpha, err)
			}
		}
		pt := SkewPoint{
			Alpha:     alpha,
			RoundsByK: make(map[int]int),
			EnergyByK: make(map[int]float64),
		}
		best := math.Inf(1)
		for _, k := range ks {
			cfg := setup.simConfig(k, pinnedE, 1)
			system, err := sim.New(cfg, shards, setup.Test)
			if err != nil {
				return nil, fmt.Errorf("skew %.2f K=%d: %w", alpha, k, err)
			}
			res, err := system.Run(fl.AnyOf(
				fl.TargetAccuracy(setup.AccuracyTarget), fl.MaxRounds(setup.RoundCap)))
			if err != nil {
				return nil, fmt.Errorf("skew %.2f K=%d run: %w", alpha, k, err)
			}
			pt.RoundsByK[k] = RoundsToAccuracy(res.History, setup.AccuracyTarget)
			pt.EnergyByK[k] = res.TotalJoules()
			// Runs that never hit the target lose to any run that did.
			effective := pt.EnergyByK[k]
			if pt.RoundsByK[k] < 0 {
				effective = math.Inf(1)
			}
			if effective < best {
				best = effective
				pt.BestK = k
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderSkew writes the label-skew ablation table.
func RenderSkew(w io.Writer, points []SkewPoint, ks []int) error {
	if _, err := fmt.Fprintln(w, "Ablation — label skew vs optimal K (paper: K*=1 under IID only)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%6s", "alpha"); err != nil {
		return err
	}
	for _, k := range ks {
		if _, err := fmt.Fprintf(w, " %8s %8s", fmt.Sprintf("T(K=%d)", k), fmt.Sprintf("J(K=%d)", k)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, " %6s\n", "bestK"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%6.2f", p.Alpha); err != nil {
			return err
		}
		for _, k := range ks {
			if _, err := fmt.Fprintf(w, " %8d %8.1f", p.RoundsByK[k], p.EnergyByK[k]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, " %6d\n", p.BestK); err != nil {
			return err
		}
	}
	return nil
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

// QuantizationAblation trains one model federatedly, then measures how
// much upload energy per round each codec saves and what it costs in
// accuracy. Upload energy is prorated from the device model's full-precision
// upload phase by the byte ratio.
func QuantizationAblation(setup *Setup) ([]QuantPoint, error) {
	engine, err := fl.NewEngine(setup.flConfig(5, 10, 1), setup.Shards, fl.WithTestSet(setup.Test))
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
	fullAcc, err := ml.Accuracy(model, setup.Test)
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
		data, err := ml.QuantizeModel(model, bits)
		if err != nil {
			return nil, fmt.Errorf("quantize %d: %w", bits, err)
		}
		back, err := ml.DequantizeModel(data)
		if err != nil {
			return nil, fmt.Errorf("dequantize %d: %w", bits, err)
		}
		acc, err := ml.Accuracy(back, setup.Test)
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
	if _, err := fmt.Fprintln(w, "Ablation — quantized model uploads (extension: e^U scales with bytes)"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s %10s %14s %10s\n", "codec", "bytes", "upload J/round", "accuracy"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%-10s %10d %14.4f %10.4f\n",
			p.Label, p.Bytes, p.UploadJoules, p.Accuracy); err != nil {
			return err
		}
	}
	return nil
}

// SeedStability reruns the measured Fig.-6 E-optimum across seeds and
// summarizes the energy at a fixed configuration, quantifying how much of
// the measured curve is seed noise.
func SeedStability(setup *Setup, k, e, seeds int) (stats.Summary, error) {
	if seeds <= 0 {
		seeds = 5
	}
	return stats.Repeat(stats.Seeds(1, seeds), func(seed uint64) (float64, error) {
		res, err := setup.RunTraining(k, e, seed)
		if err != nil {
			return 0, err
		}
		if RoundsToAccuracy(res.History, setup.AccuracyTarget) < 0 {
			return 0, fmt.Errorf("seed %d never reached the target", seed)
		}
		return res.TotalJoules(), nil
	})
}
