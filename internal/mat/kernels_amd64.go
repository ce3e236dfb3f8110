package mat

// AVX2 lanes under the training kernels (kernels_amd64.s). Each lane runs the
// portable kernel's exact sequence of roundings for one output element, so
// the results are bit-identical to it; the portable kernels stay the only
// path on CPUs without AVX2 and the reference every bit-identity test
// compares against.

// vecChunk is how many columns mulT4AVX2 transposes per call; its stack
// frame (4·vecChunk float64 plus 32 bytes of alignment slack) is sized for it.
const vecChunk = 64

// haveAVX2 is read once at start-up from CPUID: AVX2, and the OS saving YMM
// state (OSXSAVE and AVX in leaf 1, then XCR0's SSE and AVX bits).
var haveAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, c, _ := cpuid(1, 0); c&osxsaveAVX != osxsaveAVX || xgetbv0()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

// useVec selects the AVX2 kernels; tests clear it to run the portable ones.
var useVec = haveAVX2

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv0() uint32

//go:noescape
func axpyAVX2(dst *float64, alpha float64, x *float64, n int)

//go:noescape
func axpy4AVX2(dst, x0, x1, x2, x3 *float64, c0, c1, c2, c3 float64, n int)

//go:noescape
func mulT4AVX2(d, a *float64, aStride int, b *float64, bStride, classes, n int)

// axpyVec adds alpha·x into dst over the longest multiple-of-4 prefix and
// returns its length (0 when the vector path is off); len(dst) == len(x).
func axpyVec(dst []float64, alpha float64, x []float64) int {
	n := len(x) &^ 3
	if !useVec || n == 0 {
		return 0
	}
	axpyAVX2(&dst[0], alpha, &x[0], n)
	return n
}

// axpy4Vec runs AddMulTA's fused four-sample update over the longest
// multiple-of-4 prefix of dr and returns its length.
func axpy4Vec(dr, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) int {
	n := len(dr) &^ 3
	if !useVec || n == 0 {
		return 0
	}
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	axpy4AVX2(&dr[0], &x0[0], &x1[0], &x2[0], &x3[0], c0, c1, c2, c3, n)
	return n
}

// mulT4Vec computes dst rows [i, i+4) of A·Bᵀ and reports whether it did.
// The rows accumulate in dst itself: Dot's 4-wide groups in vecChunk-column
// passes, then Dot's scalar tail, k ascending.
func mulT4Vec(dst, a, b *Dense, i int) bool {
	if !useVec || b.rows == 0 {
		return false
	}
	a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
	d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
	clear(dst.data[i*dst.cols : (i+4)*dst.cols])
	kv := a.cols &^ 3
	for kc := 0; kc < kv; kc += vecChunk {
		mulT4AVX2(&d0[0], &a0[kc], a.cols, &b.data[kc], b.cols, b.rows, min(vecChunk, kv-kc))
	}
	for k := kv; k < a.cols; k++ {
		for j := range d0 {
			bk := b.data[j*b.cols+k]
			d0[j] += a0[k] * bk
			d1[j] += a1[k] * bk
			d2[j] += a2[k] * bk
			d3[j] += a3[k] * bk
		}
	}
	return true
}
