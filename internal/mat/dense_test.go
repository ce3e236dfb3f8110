package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims() = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseData(t *testing.T) {
	m, err := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("NewDenseData: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewDenseData(2, 2, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short data error = %v, want ErrShape", err)
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Errorf("At(1,2) = %v, want 42", got)
	}
	if got := m.Row(1)[2]; got != 42 {
		t.Errorf("Row(1)[2] = %v, want 42", got)
	}
}

func TestRowAliases(t *testing.T) {
	m := NewDense(2, 2)
	m.Row(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Error("Row should alias matrix storage")
	}
}

func TestSetRow(t *testing.T) {
	m := NewDense(2, 3)
	if err := m.SetRow(1, []float64{1, 2, 3}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	if m.At(1, 1) != 2 {
		t.Errorf("At(1,1) = %v, want 2", m.At(1, 1))
	}
	if err := m.SetRow(0, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("SetRow short = %v, want ErrShape", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewDense(2, 2)
	src.Fill(3)
	dst := NewDense(2, 2)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if dst.At(1, 1) != 3 {
		t.Errorf("At(1,1) = %v, want 3", dst.At(1, 1))
	}
	bad := NewDense(1, 2)
	if err := bad.CopyFrom(src); !errors.Is(err, ErrShape) {
		t.Errorf("CopyFrom mismatched = %v, want ErrShape", err)
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewDense(2, 2)
	a.Fill(2)
	b := NewDense(2, 2)
	b.Fill(1)
	a.Scale(3) // 6
	if err := a.Add(b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if a.At(0, 0) != 7 {
		t.Errorf("after scale+add got %v, want 7", a.At(0, 0))
	}
	if err := a.Sub(b); err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if a.At(1, 1) != 6 {
		t.Errorf("after sub got %v, want 6", a.At(1, 1))
	}
	if err := a.AddScaled(1, NewDense(1, 1)); !errors.Is(err, ErrShape) {
		t.Errorf("AddScaled mismatched = %v, want ErrShape", err)
	}
}

func TestApply(t *testing.T) {
	m := NewDense(1, 3)
	m.SetRow(0, []float64{1, 2, 3})
	m.Apply(func(x float64) float64 { return x * x })
	want := []float64{1, 4, 9}
	for j, w := range want {
		if m.At(0, j) != w {
			t.Errorf("At(0,%d) = %v, want %v", j, m.At(0, j), w)
		}
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	if err := m.MulVec(dst, []float64{1, 1, 1}); err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", dst)
	}
	if err := m.MulVec(dst, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("MulVec bad len = %v, want ErrShape", err)
	}
}

func TestMulVecT(t *testing.T) {
	m, _ := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	if err := m.MulVecT(dst, []float64{1, 1}); err != nil {
		t.Fatalf("MulVecT: %v", err)
	}
	want := []float64{5, 7, 9}
	for i, w := range want {
		if dst[i] != w {
			t.Errorf("MulVecT[%d] = %v, want %v", i, dst[i], w)
		}
	}
}

func TestMul(t *testing.T) {
	a, _ := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewDense(2, 2)
	if err := Mul(dst, a, b); err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if dst.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
	if err := Mul(dst, b, b); !errors.Is(err, ErrShape) {
		t.Errorf("Mul incompatible = %v, want ErrShape", err)
	}
	if err := Mul(NewDense(3, 2), a, b); !errors.Is(err, ErrShape) {
		t.Errorf("Mul dst mismatch = %v, want ErrShape", err)
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(7)
	a := randomDense(rng, 4, 6)
	b := randomDense(rng, 5, 6)
	got := NewDense(4, 5)
	if err := MulT(got, a, b); err != nil {
		t.Fatalf("MulT: %v", err)
	}
	want := NewDense(4, 5)
	if err := Mul(want, a, b.Transpose()); err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !got.Equal(want, 1e-12) {
		t.Error("MulT does not match Mul with explicit transpose")
	}
}

func TestMulTAMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(8)
	a := randomDense(rng, 6, 4)
	b := randomDense(rng, 6, 5)
	got := NewDense(4, 5)
	if err := MulTA(got, a, b); err != nil {
		t.Fatalf("MulTA: %v", err)
	}
	want := NewDense(4, 5)
	if err := Mul(want, a.Transpose(), b); err != nil {
		t.Fatalf("Mul: %v", err)
	}
	if !got.Equal(want, 1e-12) {
		t.Error("MulTA does not match Mul with explicit transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(9)
	m := randomDense(rng, 3, 7)
	if !m.Transpose().Transpose().Equal(m, 0) {
		t.Error("transpose twice must be identity")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := NewDenseData(2, 2, []float64{3, 0, 0, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestStringForms(t *testing.T) {
	small := NewDense(1, 2)
	if s := small.String(); s == "" {
		t.Error("small String empty")
	}
	big := NewDense(100, 100)
	if s := big.String(); s == "" {
		t.Error("big String empty")
	}
}

// Property: matrix multiplication is associative within tolerance.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := randomDense(rng, 3, 4)
		b := randomDense(rng, 4, 5)
		c := randomDense(rng, 5, 2)
		ab := NewDense(3, 5)
		bc := NewDense(4, 2)
		left := NewDense(3, 2)
		right := NewDense(3, 2)
		if err := Mul(ab, a, b); err != nil {
			return false
		}
		if err := Mul(left, ab, c); err != nil {
			return false
		}
		if err := Mul(bc, b, c); err != nil {
			return false
		}
		if err := Mul(right, a, bc); err != nil {
			return false
		}
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: (A·x) computed by MulVec equals column of Mul against a 1-column
// matrix.
func TestMulVecConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := randomDense(rng, 5, 3)
		x := randomVec(rng, 3)
		viaVec := make([]float64, 5)
		if err := a.MulVec(viaVec, x); err != nil {
			return false
		}
		xm, _ := NewDenseData(3, 1, Clone(x))
		prod := NewDense(5, 1)
		if err := Mul(prod, a, xm); err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			if math.Abs(viaVec[i]-prod.At(i, 0)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func randomDense(rng *RNG, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = rng.NormScaled(0, 1)
	}
	return m
}

func randomVec(rng *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormScaled(0, 1)
	}
	return v
}
