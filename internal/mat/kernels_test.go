package mat

import (
	"math"
	"testing"
)

// eachKernel runs fn on the portable kernels and then on the AVX2 ones by
// flipping useVec for its duration, so a test that calls it must not run in
// parallel with another.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, vec := range []bool{false, true} {
		name := "portable"
		if vec {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if vec && !haveAVX2 {
				t.Skip("no AVX2 with OS-enabled YMM state on this host: only the portable kernels exist here")
			}
			defer func(saved bool) { useVec = saved }(useVec)
			useVec = vec
			fn(t)
		})
	}
}

// kernelKs are the inner dimensions the shape tables sweep: every tail past
// Dot's 4-wide groups, both sides of the vecChunk boundary, and MNIST's 784.
var kernelKs = []int{1, 3, 4, 63, 64, 65, 128, 784, 786}

// axpyReference is Axpy's portable loop, zero skip included.
func axpyReference(dst []float64, alpha float64, x []float64) {
	if alpha == 0 {
		return
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// sameResult is the kernels' contract against their references: every
// non-NaN result is bit-identical. When two NaNs meet in one multiply or add,
// x86 returns the first source operand's payload, and in the scalar code the
// register allocator picks which operand that is — so a NaN result only has
// to be a NaN.
func sameResult(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// kernelSpecials are the values FuzzKernelsMatchReference mixes into its
// operands: signed zeros, infinities, subnormals, magnitudes whose products
// overflow or underflow, and a NaN with a payload.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -2.5e-310,
	1e300, -1e300, 1e-300, -1e-300, math.Float64frombits(0x7ff8_0000_dead_beef),
}

// addScaledReference is Dense.AddScaled's portable loop: no zero skip.
func addScaledReference(dst []float64, s float64, x []float64) {
	for i, v := range x {
		dst[i] += s * v
	}
}

// TestAddScaledMatchesScalarLoop pins AddScaled, lanes and tail, to its
// scalar loop for every tail past the 4-wide groups and for the paper model's
// 7 850 parameters. s = ±0 still adds 0·other — NaN where other is ±Inf or
// NaN, +0 where the receiver holds −0 — in the lanes too.
func TestAddScaledMatchesScalarLoop(t *testing.T) {
	rng := NewRNG(1)
	scales := []float64{0, math.Copysign(0, -1), 1, -1, 0.125, rng.Norm()}
	eachKernel(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 7850} {
			m, other := NewDense(1, n), NewDense(1, n)
			for _, d := range []*Dense{m, other} {
				for i := range d.data {
					d.data[i] = rng.Norm()
					if rng.Intn(2) == 0 {
						d.data[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
					}
				}
			}
			for _, s := range scales {
				got, want := m.Clone(), Clone(m.data)
				if err := got.AddScaled(s, other); err != nil {
					t.Fatal(err)
				}
				addScaledReference(want, s, other.data)
				for i := range want {
					if !sameResult(got.data[i], want[i]) {
						t.Fatalf("len %d, s %v: element %d = %v (%#x), scalar loop %v (%#x)", n, s, i,
							got.data[i], math.Float64bits(got.data[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// FuzzKernelsMatchReference drives MulT, AddMulTA, Axpy and Dense.AddScaled,
// on every kernel the host has, against the Dot, Axpy and AddScaled
// references on shapes up to 300 rows,
// 1 000 features and 20 classes. special sets how many operands are drawn
// from kernelSpecials (up to a quarter) and how many are exact zeros (as many
// again), so zero coefficients land mid-block.
func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint16(256), uint16(784), uint8(10), uint8(0), uint64(1))
	f.Add(uint16(7), uint16(65), uint8(17), uint8(40), uint64(2))
	f.Add(uint16(299), uint16(999), uint8(19), uint8(255), uint64(3))
	f.Add(uint16(4), uint16(2), uint8(0), uint8(128), uint64(4))
	f.Fuzz(func(t *testing.T, rowsRaw, featRaw uint16, classRaw, special uint8, seed uint64) {
		rows, features, classes := 1+int(rowsRaw)%300, 1+int(featRaw)%1000, 1+int(classRaw)%20
		rng := NewRNG(seed)
		fill := func(m *Dense) *Dense {
			for i := range m.data {
				switch u := rng.Intn(256); {
				case u < int(special)/4:
					m.data[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
				case u < int(special)/2:
					m.data[i] = 0
				default:
					m.data[i] = rng.Norm()
				}
			}
			return m
		}
		x, w := fill(NewDense(rows, features)), fill(NewDense(classes, features))
		delta, acc := fill(NewDense(rows, classes)), fill(NewDense(classes, features))
		alpha := fill(NewDense(1, 1)).data[0]

		wantT := NewDense(rows, classes)
		mulTReference(wantT, x, w)
		wantA := acc.Clone()
		addMulTAReference(wantA, delta, x, alpha)
		wantX := acc.Clone()
		for r := 0; r < rows; r++ {
			axpyReference(wantX.Row(r%classes), delta.At(r, 0), x.Row(r))
		}
		wantS := acc.Clone()
		addScaledReference(wantS.data, alpha, w.data)
		check := func(kernel string, got, want *Dense) {
			for i := range got.data {
				if !sameResult(got.data[i], want.data[i]) {
					t.Fatalf("%s %dx%dx%d useVec=%v: element %d = %v (%#x), reference %v (%#x)",
						kernel, rows, features, classes, useVec, i, got.data[i],
						math.Float64bits(got.data[i]), want.data[i], math.Float64bits(want.data[i]))
				}
			}
		}
		defer func(saved bool) { useVec = saved }(useVec)
		for _, vec := range []bool{false, haveAVX2} {
			useVec = vec
			gotT := NewDense(rows, classes)
			if err := MulT(gotT, x, w); err != nil {
				t.Fatal(err)
			}
			check("MulT", gotT, wantT)
			gotA := acc.Clone()
			if err := AddMulTA(gotA, delta, x, alpha); err != nil {
				t.Fatal(err)
			}
			check("AddMulTA", gotA, wantA)
			gotX := acc.Clone()
			for r := 0; r < rows; r++ {
				Axpy(gotX.Row(r%classes), delta.At(r, 0), x.Row(r))
			}
			check("Axpy", gotX, wantX)
			gotS := acc.Clone()
			if err := gotS.AddScaled(alpha, w); err != nil {
				t.Fatal(err)
			}
			check("AddScaled", gotS, wantS)
		}
	})
}
