package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergePower is returned (wrapped) when power iteration exhausts
// its budget; the best estimate is still returned.
var ErrNoConvergePower = errors.New("mat: power iteration did not converge")

// GramLargestEigenvalue estimates the largest eigenvalue of XᵀX/n for a
// data matrix X (n×d) without materializing the d×d Gram matrix: power
// iteration with matrix-vector products through X.
func GramLargestEigenvalue(x *Dense, tol float64, maxIter int, seed uint64) (float64, error) {
	n, d := x.Rows(), x.Cols()
	if n == 0 || d == 0 {
		return 0, fmt.Errorf("empty data matrix: %w", ErrShape)
	}
	if tol <= 0 {
		tol = 1e-9
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	rng := NewRNG(seed)
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.Norm()
	}
	if norm := Norm2(v); norm > 0 {
		Scale(v, 1/norm)
	} else {
		v[0] = 1
	}
	xv := make([]float64, n)
	xtxv := make([]float64, d)
	var lambda float64
	for iter := 0; iter < maxIter; iter++ {
		if err := x.MulVec(xv, v); err != nil {
			return 0, err
		}
		if err := x.MulVecT(xtxv, xv); err != nil {
			return 0, err
		}
		Scale(xtxv, 1/float64(n))
		norm := Norm2(xtxv)
		if norm == 0 {
			return 0, nil
		}
		newLambda := Dot(v, xtxv)
		Scale(xtxv, 1/norm)
		copy(v, xtxv)
		if iter > 0 && math.Abs(newLambda-lambda) <= tol*math.Max(1, math.Abs(newLambda)) {
			return newLambda, nil
		}
		lambda = newLambda
	}
	return lambda, fmt.Errorf("gram power iteration after %d steps: %w", maxIter, ErrNoConvergePower)
}
