package mat

import (
	"fmt"

	"eefei/internal/par"
)

// Transposed-B GEMM kernels: dst = A·Bᵀ computed without materializing the
// transpose. This is the batched-inference shape — logits for a row-block of
// samples are X_chunk·Wᵀ with both operands stored row-major — and the reason
// it beats a per-row matvec loop is instruction-level parallelism, not a
// different arithmetic: the micro-kernel keeps four output elements in
// flight, so four independent accumulator chains hide the floating-point add
// latency that serializes a single dot product. On amd64 with AVX2 those four
// chains are the four lanes of one register (kernels_amd64.s).
//
// Determinism contract: every output element dst[i][j] is accumulated in
// exactly the order of Dot(a.Row(i), b.Row(j)) — k ascending with Dot's
// 4-wide grouping — so the blocked, the vector, the parallel and the naive
// per-row formulations are bit-for-bit identical. The federated engine's
// batched forward pass relies on this to stay bit-identical to the
// per-sample Model.Logits reference.

// minRowsPerWorker gates goroutine spawn: below this many output rows per
// worker the synchronization overhead outweighs the parallelism.
const minRowsPerWorker = 8

func mulTShapeError(dst, a, b *Dense) error {
	return fmt.Errorf("mulT %dx%d by (%dx%d)ᵀ into %dx%d: %w",
		a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols, ErrShape)
}

func mulTAShapeError(dst, a, b *Dense) error {
	return fmt.Errorf("addMulTA (%dx%d)ᵀ by %dx%d into %dx%d: %w",
		a.rows, a.cols, b.rows, b.cols, dst.rows, dst.cols, ErrShape)
}

// mulTShapeCheck validates dst = A·Bᵀ operand shapes.
func mulTShapeCheck(dst, a, b *Dense) error {
	if a.cols != b.cols {
		return mulTShapeError(dst, a, b)
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		return mulTShapeError(dst, a, b)
	}
	return nil
}

// mulTRange computes dst rows [lo, hi) of dst = A·Bᵀ. Rows are processed in
// blocks of four so that each b.Row(j) is streamed once per block while four
// accumulator chains run independently. The vector lanes take the rows past
// the last block by recomputing the range's last four rows [hi−4, hi): an
// element's accumulation order does not depend on which block computes it,
// so rewriting a row rewrites the same bits. Ranges under four rows, and the
// portable path, fall back to Dot, which follows the identical per-element
// order.
func mulTRange(dst, a, b *Dense, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		if mulT4Vec(dst, a, b, i) {
			continue
		}
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := 0; j < b.rows; j++ {
			s0, s1, s2, s3 := dot4(a0, a1, a2, a3, b.Row(j))
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	if i < hi && hi-lo >= 4 && mulT4Vec(dst, a, b, hi-4) {
		return
	}
	for ; i < hi; i++ {
		ar, dr := a.Row(i), dst.Row(i)
		for j := 0; j < b.rows; j++ {
			dr[j] = Dot(ar, b.Row(j))
		}
	}
}

// dot4 returns the four dot products a0·b, a1·b, a2·b, a3·b. Each result is
// accumulated in exactly Dot's order (4-wide unrolled groups, k ascending,
// one accumulator per output), so every return value is bit-identical to the
// corresponding Dot call; the speedup comes purely from the four independent
// accumulation chains and the shared loads of b.
func dot4(a0, a1, a2, a3, b []float64) (s0, s1, s2, s3 float64) {
	n := len(b)
	// Re-slice the left operands to the shared length: panics on a shape bug
	// (as Dot would) and anchors the bounds-check elimination below.
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	k := 0
	for ; k+8 <= n; k += 8 {
		// Two 4-wide groups per iteration: each is added to the accumulator
		// separately, in order, exactly as two successive Dot iterations.
		bs := b[k : k+8 : len(b)]
		x0, x1, x2, x3 := a0[k:k+8:n], a1[k:k+8:n], a2[k:k+8:n], a3[k:k+8:n]
		b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
		s0 += x0[0]*b0 + x0[1]*b1 + x0[2]*b2 + x0[3]*b3
		s1 += x1[0]*b0 + x1[1]*b1 + x1[2]*b2 + x1[3]*b3
		s2 += x2[0]*b0 + x2[1]*b1 + x2[2]*b2 + x2[3]*b3
		s3 += x3[0]*b0 + x3[1]*b1 + x3[2]*b2 + x3[3]*b3
		b4, b5, b6, b7 := bs[4], bs[5], bs[6], bs[7]
		s0 += x0[4]*b4 + x0[5]*b5 + x0[6]*b6 + x0[7]*b7
		s1 += x1[4]*b4 + x1[5]*b5 + x1[6]*b6 + x1[7]*b7
		s2 += x2[4]*b4 + x2[5]*b5 + x2[6]*b6 + x2[7]*b7
		s3 += x3[4]*b4 + x3[5]*b5 + x3[6]*b6 + x3[7]*b7
	}
	for ; k+4 <= n; k += 4 {
		// Fixed-length subslices let the compiler prove every constant index
		// in bounds — one check per operand per iteration instead of one per
		// load (the checks otherwise dominate the 16 multiply-adds).
		bs := b[k : k+4 : len(b)]
		x0, x1, x2, x3 := a0[k:k+4:n], a1[k:k+4:n], a2[k:k+4:n], a3[k:k+4:n]
		b0, b1, b2, b3 := bs[0], bs[1], bs[2], bs[3]
		s0 += x0[0]*b0 + x0[1]*b1 + x0[2]*b2 + x0[3]*b3
		s1 += x1[0]*b0 + x1[1]*b1 + x1[2]*b2 + x1[3]*b3
		s2 += x2[0]*b0 + x2[1]*b1 + x2[2]*b2 + x2[3]*b3
		s3 += x3[0]*b0 + x3[1]*b1 + x3[2]*b2 + x3[3]*b3
	}
	for ; k < n; k++ {
		bk := b[k]
		s0 += a0[k] * bk
		s1 += a1[k] * bk
		s2 += a2[k] * bk
		s3 += a3[k] * bk
	}
	return s0, s1, s2, s3
}

// MulT computes dst = A·Bᵀ without forming the transpose. dst must be
// A.Rows × B.Rows and must not alias A or B. Each output element follows
// Dot's accumulation order, so the result is bit-identical to the naive
// per-row formulation and to MulTWorkers at any worker count.
func MulT(dst, a, b *Dense) error {
	if err := mulTShapeCheck(dst, a, b); err != nil {
		return err
	}
	mulTRange(dst, a, b, 0, a.rows)
	return nil
}

// MulTWorkers computes dst = A·Bᵀ with output rows split across up to
// workers par.Do workers (workers <= 1 runs inline). Shapes follow MulT; dst
// must not alias A or B. The result is bit-identical to MulT for any worker
// count: each output row has exactly one owner and row-block boundaries
// never change an element's accumulation order.
func MulTWorkers(dst, a, b *Dense, workers int) error {
	if err := mulTShapeCheck(dst, a, b); err != nil {
		return err
	}
	rows := a.rows
	workers = min(workers, rows/minRowsPerWorker)
	if workers <= 1 {
		mulTRange(dst, a, b, 0, rows)
		return nil
	}
	// One contiguous block of rows per pool index.
	chunk := (rows + workers - 1) / workers
	par.Do((rows+chunk-1)/chunk, workers, par.Func(func(_, i int) {
		mulTRange(dst, a, b, i*chunk, min((i+1)*chunk, rows))
	}))
	return nil
}

// AddMulTA accumulates dst += Aᵀ·(alpha·B): for every row r of A and B,
// dst[i][j] += (alpha·a[r][i]) · b[r][j]. This is the blocked backward
// kernel of the softmax gradient — A holds per-sample deltas (rows×classes),
// B the sample block (rows×features), and dst the classes×features gradient
// accumulator receiving the scaled outer-product updates.
//
// Per-element accumulation order is r ascending with each contribution
// computed as (alpha·a[r][i])·b[r][j], and contributions whose coefficient
// is exactly zero are skipped — precisely the semantics of the sequential
// per-sample formulation `for r { Axpy(dst.Row(i), alpha*a[r][i], b.Row(r)) }`,
// so the blocked result is bit-identical to it.
func AddMulTA(dst, a, b *Dense, alpha float64) error {
	if a.rows != b.rows {
		return mulTAShapeError(dst, a, b)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return mulTAShapeError(dst, a, b)
	}
	r := 0
	for ; r+4 <= a.rows; r += 4 {
		a0, a1, a2, a3 := a.Row(r), a.Row(r+1), a.Row(r+2), a.Row(r+3)
		b0, b1, b2, b3 := b.Row(r), b.Row(r+1), b.Row(r+2), b.Row(r+3)
		for i := 0; i < a.cols; i++ {
			c0, c1, c2, c3 := alpha*a0[i], alpha*a1[i], alpha*a2[i], alpha*a3[i]
			dr := dst.Row(i)
			if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
				// Fused four-sample update: dst row elements are loaded and
				// stored once per block instead of once per sample. The four
				// adds land in sample order, matching the Axpy sequence
				// below bit for bit. The vector lanes take the longest
				// multiple-of-4 prefix; re-slicing the other operands to the
				// rest's length lets the compiler drop their per-load bounds
				// checks (and panics early on a shape bug, as Axpy would).
				n := axpy4Vec(dr, b0, b1, b2, b3, c0, c1, c2, c3)
				y0 := b0[n:]
				dr, y1, y2, y3 := dr[n:][:len(y0)], b1[n:][:len(y0)], b2[n:][:len(y0)], b3[n:][:len(y0)]
				for j, v := range y0 {
					w := dr[j]
					w += c0 * v
					w += c1 * y1[j]
					w += c2 * y2[j]
					w += c3 * y3[j]
					dr[j] = w
				}
			} else {
				// A zero coefficient must contribute nothing at all (Axpy's
				// alpha==0 skip — adding 0·x would still flip -0 to +0), so
				// blocks containing one fall back to the sequential updates.
				Axpy(dr, c0, b0)
				Axpy(dr, c1, b1)
				Axpy(dr, c2, b2)
				Axpy(dr, c3, b3)
			}
		}
	}
	for ; r < a.rows; r++ {
		ar, br := a.Row(r), b.Row(r)
		for i, av := range ar {
			Axpy(dst.Row(i), alpha*av, br)
		}
	}
	return nil
}
