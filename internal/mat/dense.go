// Package mat provides the small dense linear-algebra kernel used by the
// machine-learning substrate: row-major float64 matrices, vector helpers,
// Householder-QR and normal-equation least squares, and deterministic random
// sources. It is intentionally minimal — just what a linear classifier and
// the energy-model fitting need — and depends only on the standard library.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) whenever operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// Dense is a row-major dense matrix of float64.
//
// The zero value is an empty 0×0 matrix. Use NewDense to allocate a sized
// matrix; methods never reallocate the receiver's backing storage unless
// documented otherwise.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c matrix of zeros.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) (*Dense, error) {
	if len(data) != r*c {
		return nil, fmt.Errorf("wrap %dx%d with %d values: %w", r, c, len(data), ErrShape)
	}
	return &Dense{rows: r, cols: c, data: data}, nil
}

// Dims returns the matrix dimensions (rows, cols).
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// RawData returns the backing row-major storage. Mutations are visible to the
// matrix; callers that need an independent copy should use Clone.
func (m *Dense) RawData() []float64 { return m.data }

// SetRow copies src into row i.
func (m *Dense) SetRow(i int, src []float64) error {
	if len(src) != m.cols {
		return fmt.Errorf("set row of length %d into %d columns: %w", len(src), m.cols, ErrShape)
	}
	copy(m.Row(i), src)
	return nil
}

// SliceRows returns a view of rows [lo, hi) sharing the receiver's storage:
// mutations through the view are visible in the parent and vice versa. The
// view is returned by value so hot paths can take its address without a heap
// allocation. Out-of-range bounds panic, mirroring slice semantics.
func (m *Dense) SliceRows(lo, hi int) Dense {
	if lo < 0 || hi < lo || hi > m.rows {
		panic(fmt.Sprintf("mat: slice rows [%d,%d) of %dx%d", lo, hi, m.rows, m.cols))
	}
	return Dense{rows: hi - lo, cols: m.cols, data: m.data[lo*m.cols : hi*m.cols : hi*m.cols]}
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// CopyFrom copies src into the receiver. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("copy %dx%d into %dx%d: %w", src.rows, src.cols, m.rows, m.cols, ErrShape)
	}
	copy(m.data, src.data)
	return nil
}

// Zero sets every element to zero.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddScaled adds s*other to the receiver in place (receiver += s·other).
// Unlike Axpy it has no zero skip: s == 0 still adds 0·other, so a NaN or Inf
// in other shows and −0 + 0 is +0.
func (m *Dense) AddScaled(s float64, other *Dense) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("add %dx%d to %dx%d: %w", other.rows, other.cols, m.rows, m.cols, ErrShape)
	}
	n := axpyVec(m.data, s, other.data)
	dst := m.data[n:]
	for i, v := range other.data[n:] {
		dst[i] += s * v
	}
	return nil
}

// Add adds other to the receiver in place.
func (m *Dense) Add(other *Dense) error { return m.AddScaled(1, other) }

// Sub subtracts other from the receiver in place.
func (m *Dense) Sub(other *Dense) error { return m.AddScaled(-1, other) }

// Apply replaces each element x with f(x).
func (m *Dense) Apply(f func(float64) float64) {
	for i, v := range m.data {
		m.data[i] = f(v)
	}
}

// MulVec computes dst = M·x. dst must have length Rows and x length Cols;
// dst may not alias x.
func (m *Dense) MulVec(dst, x []float64) error {
	if len(x) != m.cols || len(dst) != m.rows {
		return fmt.Errorf("mulvec %dx%d by len %d into len %d: %w", m.rows, m.cols, len(x), len(dst), ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return nil
}

// MulVecT computes dst = Mᵀ·x (length-Cols result) without forming the
// transpose. dst may not alias x.
func (m *Dense) MulVecT(dst, x []float64) error {
	if len(x) != m.rows || len(dst) != m.cols {
		return fmt.Errorf("mulvecT %dx%d by len %d into len %d: %w", m.rows, m.cols, len(x), len(dst), ErrShape)
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		Axpy(dst, x[i], m.Row(i))
	}
	return nil
}

// Mul computes dst = A·B. dst must be preallocated with shape
// A.Rows × B.Cols and must not alias A or B. Every element accumulates k
// ascending, one Axpy of a row of B per nonzero a[i][k].
func Mul(dst, a, b *Dense) error {
	if a.cols != b.rows {
		return fmt.Errorf("mul %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("mul into %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	dst.Zero()
	for i := 0; i < a.rows; i++ {
		dr := dst.Row(i)
		for k, av := range a.Row(i) {
			Axpy(dr, av, b.Row(k))
		}
	}
	return nil
}

// MulTA computes dst = Aᵀ·B. dst must be A.Cols × B.Cols and must not alias
// A or B.
func MulTA(dst, a, b *Dense) error {
	if a.rows != b.rows {
		return fmt.Errorf("mulTA (%dx%d)ᵀ by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return fmt.Errorf("mulTA into %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.cols, b.cols, ErrShape)
	}
	dst.Zero()
	for r := 0; r < a.rows; r++ {
		aRow := a.Row(r)
		bRow := b.Row(r)
		for i, av := range aRow {
			if av == 0 {
				continue
			}
			Axpy(dst.Row(i), av, bRow)
		}
	}
	return nil
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm sqrt(Σ m_ij²).
func (m *Dense) FrobeniusNorm() float64 {
	return Norm2(m.data)
}

// Equal reports whether m and other have identical shape and elements within
// absolute tolerance tol.
func (m *Dense) Equal(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense{%dx%d, fro=%.4g}", m.rows, m.cols, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("Dense{%dx%d:", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		s += fmt.Sprintf(" %v", m.Row(i))
	}
	return s + "}"
}
