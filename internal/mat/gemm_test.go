package mat

import (
	"fmt"
	"testing"
)

// naiveMul is the obviously-correct triple loop the blocked kernel is
// checked against (values compared exactly for small sizes, where both
// orders accumulate few enough terms that rounding differences would be a
// logic bug, and within tolerance for larger ones).
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randomSeededDense(r, c int, seed uint64) *Dense {
	rng := NewRNG(seed)
	m := NewDense(r, c)
	for i := range m.RawData() {
		m.RawData()[i] = rng.Norm()
	}
	return m
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {17, 9, 33},
		{65, 70, 300},   // crosses both the k and j block boundaries
		{128, 200, 257}, // uneven tail in every dimension
	}
	for _, s := range shapes {
		a, b := randomSeededDense(s.m, s.k, 1), randomSeededDense(s.k, s.n, 2)
		dst := NewDense(s.m, s.n)
		if err := mul(dst, a, b); err != nil {
			t.Fatalf("Mul %v: %v", s, err)
		}
		if want := naiveMul(a, b); !dst.Equal(want, 1e-9) {
			t.Errorf("blocked Mul diverges from naive reference at %v", s)
		}
	}
}

func BenchmarkRNGSample(b *testing.B) {
	r := NewRNG(1)
	for _, size := range []struct{ n, k int }{{20, 10}, {100000, 10}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", size.n, size.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Sample(size.n, size.k)
			}
		})
	}
}
