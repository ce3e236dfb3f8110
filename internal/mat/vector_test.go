package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"single", []float64{2}, []float64{3}, 6},
		{"unrolled", []float64{1, 2, 3, 4, 5}, []float64{5, 4, 3, 2, 1}, 35},
		{"negatives", []float64{-1, 1}, []float64{1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot with mismatched lengths must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		dst := []float64{1, 2, 3}
		Axpy(dst, 2, []float64{1, 1, 1})
		want := []float64{3, 4, 5}
		for i := range want {
			if dst[i] != want[i] {
				t.Errorf("Axpy[%d] = %v, want %v", i, dst[i], want[i])
			}
		}
		// alpha==0 must be a no-op even with NaN inputs, in the vector lanes too.
		dst2 := []float64{1, 1, 1, 1, 1}
		Axpy(dst2, 0, []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()})
		for _, v := range dst2 {
			if v != 1 {
				t.Fatal("Axpy with alpha=0 must not touch dst")
			}
		}
		// Every length through the vector prefix and its tail, bit for bit.
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 786} {
			x, y := randomSeededDense(1, n, uint64(n)).RawData(), randomSeededDense(1, n, uint64(n+1)).RawData()
			got, want := Clone(y), Clone(y)
			Axpy(got, 0.3, x)
			axpyReference(want, 0.3, x)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("len %d: Axpy[%d] = %v differs bitwise from the reference %v", n, i, got[i], want[i])
				}
			}
		}
	})
}

func TestScaleVec(t *testing.T) {
	x := []float64{1, -2}
	Scale(x, -3)
	if x[0] != -3 || x[1] != 6 {
		t.Errorf("Scale = %v, want [-3 6]", x)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum of squares would overflow here; scaled accumulation must not.
	x := []float64{1e200, 1e200}
	want := math.Sqrt2 * 1e200
	if got := Norm2(x); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Norm2 = %v, want %v", got, want)
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		name string
		x    []float64
		want int
	}{
		{"empty", nil, -1},
		{"single", []float64{5}, 0},
		{"middle", []float64{1, 9, 2}, 1},
		{"tie lowest index", []float64{3, 3}, 0},
		{"negative", []float64{-5, -1, -9}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ArgMax(tt.x); got != tt.want {
				t.Errorf("ArgMax = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestSubVecAndClone(t *testing.T) {
	a := []float64{5, 7}
	b := []float64{2, 3}
	dst := make([]float64, 2)
	SubVec(dst, a, b)
	if dst[0] != 3 || dst[1] != 4 {
		t.Errorf("SubVec = %v, want [3 4]", dst)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] != 5 {
		t.Error("Clone must copy")
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.v, tt.lo, tt.hi); got != tt.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

// Property: Cauchy–Schwarz |a·b| <= ‖a‖‖b‖.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := randomVec(rng, 16)
		b := randomVec(rng, 16)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Norm2 on a+b.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := randomVec(rng, 8)
		b := randomVec(rng, 8)
		sum := Clone(a)
		Axpy(sum, 1, b)
		return Norm2(sum) <= Norm2(a)+Norm2(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
