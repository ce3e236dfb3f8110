package ml

import (
	"fmt"
	"math"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// Batched forward pass: logits for a whole row-block are computed as one
// X_chunk·Wᵀ product (mat.MulT) plus a bias broadcast, instead of a matvec
// per sample. The blocked kernel accumulates every output element in exactly
// Dot's order and multiplication is commutative, so each logits row is
// bit-identical to Model.Logits on that sample — every metric and gradient
// derived here matches the per-sample sequential reference bit for bit.
// Blocks are evalChunk rows so the scratch footprint stays fixed and the
// X block + logits block stay cache-resident.

// fwdScratch owns the reusable buffers of one batched forward stream. Each
// owner (an Evaluator worker, an SGD, a one-shot Loss call) holds its own, so
// warm passes perform zero heap allocations. The zero value is ready to use;
// buffers are sized lazily on first use and re-sized only when the model
// shape changes.
type fwdScratch struct {
	// logits is the evalChunk×classes logits/probability block. Rows double
	// as the in-place delta matrix on the gradient path.
	logits *mat.Dense
	// xrows is the evalChunk×features gather buffer for non-contiguous row
	// selections (mini-batch permutation slices). Contiguous passes never
	// touch it.
	xrows *mat.Dense
}

// ensureLogits returns the logits block, (re)allocating when the class count
// changes.
func (sc *fwdScratch) ensureLogits(classes int) *mat.Dense {
	if sc.logits == nil || sc.logits.Cols() != classes {
		sc.logits = mat.NewDense(evalChunk, classes)
	}
	return sc.logits
}

// ensureX returns the gather buffer, (re)allocating when the feature count
// changes.
func (sc *fwdScratch) ensureX(features int) *mat.Dense {
	if sc.xrows == nil || sc.xrows.Cols() != features {
		sc.xrows = mat.NewDense(evalChunk, features)
	}
	return sc.xrows
}

// forwardRowRange runs the batched forward pass over rows [lo, hi) of d and
// returns the summed (not averaged) loss and/or the correct-prediction count,
// per wantLoss/wantHits. Hits are argmax over raw logits (the head is
// monotonic, so activation cannot change the argmax) and the loss matches
// lossSampleRef exactly: softmax loss reads only p_y = e_y/Σe — skipping the
// other divisions is bit-identical because softmaxInPlace computes each
// probability as an independent e_i/Σe division.
func forwardRowRange(m *Model, d *dataset.Dataset, lo, hi int, sc *fwdScratch, wantLoss, wantHits bool) (lossSum float64, hits int, err error) {
	logits := sc.ensureLogits(m.Classes())
	for blo := lo; blo < hi; blo += evalChunk {
		bhi := blo + evalChunk
		if bhi > hi {
			bhi = hi
		}
		x := d.X.SliceRows(blo, bhi)
		lg := logits.SliceRows(0, bhi-blo)
		if err := mat.MulT(&lg, &x, m.W); err != nil {
			return 0, 0, fmt.Errorf("batched logits: %w", err)
		}
		for r := 0; r < lg.Rows(); r++ {
			row := lg.Row(r)
			mat.Axpy(row, 1, m.B)
			y := d.Labels[blo+r]
			if wantHits && mat.ArgMax(row) == y {
				hits++
			}
			if !wantLoss {
				continue
			}
			switch m.Act {
			case Sigmoid:
				for i, z := range row {
					row[i] = sigmoid(z)
				}
				lossSum += sampleLoss(Sigmoid, row, y)
			default:
				lossSum += softmaxLogitsLoss(row, y)
			}
		}
	}
	return lossSum, hits, nil
}

// softmaxLogitsLoss returns the cross-entropy −log(max(softmax(z)[y], ε))
// straight from logits, without storing or normalizing the full probability
// row. The max-shift, the exponentials, and the Σe accumulation run in
// exactly softmaxInPlace's order and p_y is the same e_y/Σe division, so the
// result is bit-identical to softmaxInPlace + sampleLoss.
func softmaxLogitsLoss(z []float64, y int) float64 {
	maxZ := math.Inf(-1)
	for _, v := range z {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum, ey float64
	for i, v := range z {
		e := math.Exp(v - maxZ)
		if i == y {
			ey = e
		}
		sum += e
	}
	var total float64
	total -= math.Log(math.Max(ey/sum, epsLog))
	return total
}
