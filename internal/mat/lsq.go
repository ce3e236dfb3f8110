package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned (wrapped) when a linear system is singular or so
// ill-conditioned the factorization breaks down.
var ErrSingular = errors.New("mat: singular system")

// QRLeastSquares solves min_x ‖A·x − b‖₂ using Householder QR, which stays
// numerically robust for ill-conditioned designs. A and b are not modified.
func QRLeastSquares(a *Dense, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if len(b) != m {
		return nil, fmt.Errorf("qr lsq rhs len %d for %d rows: %w", len(b), m, ErrShape)
	}
	if m < n {
		return nil, fmt.Errorf("qr lsq underdetermined %dx%d: %w", m, n, ErrShape)
	}
	r := a.Clone()
	y := Clone(b)
	// Householder reduction applied simultaneously to r and y.
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			return nil, fmt.Errorf("column %d is zero: %w", k, ErrSingular)
		}
		// Choose the reflector sign to avoid cancellation in v_k = 1 + x_k/norm.
		if r.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s = -s / r.At(k, k)
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		// Apply the reflector to the right-hand side.
		var s float64
		for i := k; i < m; i++ {
			s += r.At(i, k) * y[i]
		}
		s = -s / r.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * r.At(i, k)
		}
		// The reflector maps the column to −norm·e_k, so the R diagonal is −norm.
		r.Set(k, k, -norm)
	}
	// Back-substitute R·x = y[:n]. The upper triangle above the diagonal of r
	// holds R; the diagonal entries were overwritten with the true R diagonal.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("zero diagonal at %d: %w", i, ErrSingular)
		}
		x[i] = s / d
	}
	return x, nil
}
