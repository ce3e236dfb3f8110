package ml

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// Fuzzers for the two binary model decoders a peer's bytes reach: corrupt
// payloads must error, never panic or over-allocate. Each decodes into a
// warm scratch model, as the wire does round after round.

func FuzzReadModel(f *testing.F) {
	m := NewModel(3, 5, Softmax)
	m.W.Fill(0.5)
	f.Add(m.AppendBinary(nil))
	f.Add([]byte("EFM\x01garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		back := NewModel(3, 5, Softmax)
		if err := back.UnmarshalBinaryReuse(data); err == nil {
			if back.Classes() <= 0 || back.Features() <= 0 {
				t.Fatal("accepted a model with non-positive dims")
			}
			if back.ParamCount() > 1<<26+1<<13 {
				t.Fatal("accepted an over-sized model")
			}
		}
	})
}

func FuzzDequantizeModel(f *testing.F) {
	m := NewModel(3, 5, Softmax)
	m.W.Fill(0.25)
	for _, bits := range []QuantBits{Quant8, Quant16} {
		data, err := AppendQuantized(nil, m, bits)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("EFQ\x01short"))
	f.Fuzz(func(t *testing.T, data []byte) {
		back := NewModel(3, 5, Softmax)
		if err := back.DequantizeInto(data); err == nil {
			if back.Classes() <= 0 || back.Features() <= 0 {
				t.Fatal("accepted a model with non-positive dims")
			}
			for _, v := range back.W.RawData() {
				if v != v { // NaN check without importing math
					t.Fatal("dequantized NaN weight")
				}
			}
		}
	})
}

// FuzzBatchedForward drives the chunked-GEMM forward pass over randomized
// (rows, features, classes) shapes and data: it must never panic, must match
// the per-sample sequential reference bit for bit (loss sum and hit count), and must reject shape mismatches with ErrModelShape.
func FuzzBatchedForward(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint8(2), uint64(1), false)
	f.Add(uint16(256), uint16(64), uint8(10), uint64(7), false)
	f.Add(uint16(257), uint16(3), uint8(5), uint64(9), true)
	f.Add(uint16(600), uint16(17), uint8(12), uint64(42), false)
	f.Add(uint16(300), uint16(784), uint8(10), uint64(3), false)
	f.Add(uint16(13), uint16(999), uint8(7), uint64(5), true)
	f.Fuzz(func(t *testing.T, rowsRaw, featRaw uint16, classRaw uint8, seed uint64, sigmoidHead bool) {
		rows := 1 + int(rowsRaw)%600
		features := 1 + int(featRaw)%1000
		classes := 2 + int(classRaw)%11
		act := Softmax
		if sigmoidHead {
			act = Sigmoid
		}
		rng := mat.NewRNG(seed)
		x := mat.NewDense(rows, features)
		for i := range x.RawData() {
			x.RawData()[i] = rng.Norm()
		}
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		d := &dataset.Dataset{X: x, Labels: labels, Classes: classes}
		m := NewModel(classes, features, act)
		for i := range m.W.RawData() {
			m.W.RawData()[i] = 0.2 * rng.Norm()
		}
		for i := range m.B {
			m.B[i] = 0.1 * rng.Norm()
		}

		var sc fwdScratch
		lossSum, hits, err := forwardRowRange(m, d, 0, rows, &sc, true, true)
		if err != nil {
			t.Fatalf("forwardRowRange(%dx%d, %d classes): %v", rows, features, classes, err)
		}
		probs := make([]float64, classes)
		var wantLoss float64
		wantHits := 0
		for i := 0; i < rows; i++ {
			if err := m.Logits(probs, d.X.Row(i)); err != nil {
				t.Fatalf("Logits(%d): %v", i, err)
			}
			if mat.ArgMax(probs) == labels[i] {
				wantHits++
			}
			if err := m.Probabilities(probs, d.X.Row(i)); err != nil {
				t.Fatalf("Probabilities(%d): %v", i, err)
			}
			wantLoss += sampleLoss(act, probs, labels[i])
		}
		if math.Float64bits(lossSum) != math.Float64bits(wantLoss) {
			t.Fatalf("%dx%dx%d %v: batched loss %v differs bitwise from per-sample reference %v",
				rows, features, classes, act, lossSum, wantLoss)
		}
		if hits != wantHits {
			t.Fatalf("%dx%dx%d: batched hits %d, reference %d", rows, features, classes, hits, wantHits)
		}

		// Shape mismatches must surface as ErrModelShape, never a panic.
		wrong := NewModel(classes, features+1, act)
		if _, _, err := forwardRowRange(wrong, d, 0, rows, &sc, true, true); !errors.Is(err, ErrModelShape) && !errors.Is(err, mat.ErrShape) {
			t.Fatalf("feature mismatch = %v, want a shape error", err)
		}
	})
}
