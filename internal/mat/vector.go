package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise because it sits on the hottest path and the
// caller is expected to have validated shapes at the matrix boundary.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot of len %d and %d", len(a), len(b)))
	}
	var s float64
	// 4-way unroll: measurably faster than the naive loop for the 784-wide
	// rows the classifier uses, and bit-for-bit deterministic.
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += alpha*x element-wise. Lengths must match.
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: axpy of len %d into %d", len(x), len(dst)))
	}
	if alpha == 0 {
		return
	}
	n := axpyVec(dst, alpha, x)
	dst, x = dst[n:], x[n:]
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// HasAVX2 reports whether the CPU and OS run AVX2 code (never off amd64). It
// is the one CPUID probe in the module: other packages' vector paths select
// on its answer rather than probing again.
func HasAVX2() bool { return haveAVX2 }

// Scale multiplies each element of x by alpha in place.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow the same
// way the reference BLAS dnrm2 does (scaled accumulation).
func Norm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// ArgMax returns the index of the largest element of x (-1 for empty x).
// Ties resolve to the lowest index.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Clone returns an independent copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SubVec computes dst = a - b element-wise; dst may alias a or b.
func SubVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Sprintf("mat: subvec lens %d, %d into %d", len(a), len(b), len(dst)))
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
