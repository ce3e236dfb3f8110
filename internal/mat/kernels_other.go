//go:build !amd64

package mat

// Off amd64 the portable kernels are the only path.

const haveAVX2 = false

var useVec = false

func axpyVec(dst []float64, alpha float64, x []float64) int { return 0 }

func axpy4Vec(dr, x0, x1, x2, x3 []float64, c0, c1, c2, c3 float64) int { return 0 }

func mulT4Vec(dst, a, b *Dense, i int) bool { return false }
