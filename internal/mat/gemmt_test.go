package mat

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// mulTReference is the naive per-element formulation the blocked kernel must
// match bit for bit: dst[i][j] = Dot(a.Row(i), b.Row(j)).
func mulTReference(dst, a, b *Dense) {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			dst.Set(i, j, Dot(a.Row(i), b.Row(j)))
		}
	}
}

// addMulTAReference is the sequential per-sample outer-product accumulation
// AddMulTA must reproduce exactly: Axpy's portable loop per sample, zero
// skip included.
func addMulTAReference(dst, a, b *Dense, alpha float64) {
	for r := 0; r < a.Rows(); r++ {
		ar, br := a.Row(r), b.Row(r)
		for i, av := range ar {
			axpyReference(dst.Row(i), alpha*av, br)
		}
	}
}

func TestMulTMatchesDotReferenceBitIdentical(t *testing.T) {
	// Shapes cover every kernel regime: rows 1–9 (every tail past the 4-row
	// blocks), every k in kernelKs, classes 1–17 (every grouping of the
	// vector kernel's 4-class and 1-class passes), and evaluator-sized
	// blocks. The small shapes are row views of one draw per k.
	type shape struct{ m, n, k int }
	type tcase struct {
		s          shape
		a, b, want *Dense
	}
	var cases []tcase
	add := func(s shape, a, b Dense) {
		want := NewDense(s.m, s.n)
		mulTReference(want, &a, &b)
		cases = append(cases, tcase{s, &a, &b, want})
	}
	for _, s := range []shape{{256, 10, 64}, {13, 10, 64}, {31, 9, 786}} {
		add(s, *randomSeededDense(s.m, s.k, uint64(s.m*1000+s.k)), *randomSeededDense(s.n, s.k, uint64(s.n*7777+s.k)))
	}
	for _, k := range kernelKs {
		a, b := randomSeededDense(9, k, uint64(k)), randomSeededDense(17, k, uint64(7777+k))
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 17; n++ {
				add(shape{m, n, k}, a.SliceRows(0, m), b.SliceRows(0, n))
			}
		}
	}
	eachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			got := NewDense(c.s.m, c.s.n)
			if err := MulT(got, c.a, c.b); err != nil {
				t.Fatalf("MulT(%dx%d·(%dx%d)ᵀ): %v", c.s.m, c.s.k, c.s.n, c.s.k, err)
			}
			for i := range got.data {
				if math.Float64bits(got.data[i]) != math.Float64bits(c.want.data[i]) {
					t.Fatalf("shape %v: element %d = %v differs bitwise from Dot reference %v",
						c.s, i, got.data[i], c.want.data[i])
				}
			}
			if c.s.m < 2*minRowsPerWorker {
				continue // MulTWorkers would run inline: MulT again
			}
			for _, workers := range []int{2, 3, 8, 64} {
				par := NewDense(c.s.m, c.s.n)
				if err := MulTWorkers(par, c.a, c.b, workers); err != nil {
					t.Fatalf("MulTWorkers(%d): %v", workers, err)
				}
				for i := range par.data {
					if math.Float64bits(par.data[i]) != math.Float64bits(c.want.data[i]) {
						t.Fatalf("shape %v workers=%d: element %d differs bitwise from reference", c.s, workers, i)
					}
				}
			}
		}
	})
}

// TestMulTTailRows pins the rows past the last 4-row block, which the vector
// lanes take by recomputing a range's last block: at every row count 1–13
// and 1–3 workers, MulT and MulTWorkers match the per-row Dot reference
// bit for bit, special values included. Below 2·minRowsPerWorker rows the
// workers run inline, so 17–26 rows add ranges that split mid-block.
func TestMulTTailRows(t *testing.T) {
	const n, k = 10, 67
	rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 17, 18, 19, 26}
	eachKernel(t, func(t *testing.T) {
		rng := NewRNG(11)
		for _, rows := range rowCounts {
			a, b := NewDense(rows, k), NewDense(n, k)
			for _, m := range []*Dense{a, b} {
				for i := range m.data {
					m.data[i] = rng.Norm()
					if rng.Intn(8) == 0 {
						m.data[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
					}
				}
			}
			want := NewDense(rows, n)
			mulTReference(want, a, b)
			check := func(what string, got *Dense) {
				for i := range got.data {
					if !sameResult(got.data[i], want.data[i]) {
						t.Fatalf("%s rows=%d: element %d = %v (%#x), Dot reference %v (%#x)", what, rows, i,
							got.data[i], math.Float64bits(got.data[i]), want.data[i], math.Float64bits(want.data[i]))
					}
				}
			}
			got := NewDense(rows, n)
			if err := MulT(got, a, b); err != nil {
				t.Fatal(err)
			}
			check("MulT", got)
			for workers := 1; workers <= 3; workers++ {
				got := NewDense(rows, n)
				if err := MulTWorkers(got, a, b, workers); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("MulTWorkers(%d)", workers), got)
			}
		}
	})
}

func TestMulTShapeErrors(t *testing.T) {
	a, b := NewDense(3, 4), NewDense(2, 5)
	if err := MulT(NewDense(3, 2), a, b); !errors.Is(err, ErrShape) {
		t.Errorf("inner-dim mismatch = %v, want ErrShape", err)
	}
	b = NewDense(2, 4)
	if err := MulT(NewDense(2, 2), a, b); !errors.Is(err, ErrShape) {
		t.Errorf("dst mismatch = %v, want ErrShape", err)
	}
	if err := MulTWorkers(NewDense(2, 2), a, b, 4); !errors.Is(err, ErrShape) {
		t.Errorf("workers dst mismatch = %v, want ErrShape", err)
	}
}

func TestAddMulTAMatchesAxpyReferenceBitIdentical(t *testing.T) {
	// rows 1–9 cover every tail past the fused 4-sample blocks, p the
	// classes 1–17, q every j tail of the vector lanes (kernelKs).
	type shape struct{ rows, p, q int }
	type tcase struct {
		s           shape
		a, b, start *Dense
		want        *Dense
	}
	var cases []tcase
	add := func(s shape, b, start Dense) {
		a := randomSeededDense(s.rows, s.p, uint64(s.rows*31+s.p))
		// Inject exact zeros so the fused path's zero-coefficient fallback is
		// exercised mid-block, not only in the tail.
		for i := 0; i < len(a.data); i += 5 {
			a.data[i] = 0
		}
		want := start.Clone()
		addMulTAReference(want, a, &b, 0.25)
		cases = append(cases, tcase{s, a, &b, &start, want})
	}
	for _, s := range []shape{{200, 10, 64}, {257, 4, 33}} {
		add(s, *randomSeededDense(s.rows, s.q, uint64(s.rows*97+s.q)), *randomSeededDense(s.p, s.q, 12345))
	}
	for _, q := range kernelKs {
		b, start := randomSeededDense(9, q, uint64(97+q)), randomSeededDense(17, q, 12345)
		for rows := 1; rows <= 9; rows++ {
			for p := 1; p <= 17; p++ {
				add(shape{rows, p, q}, b.SliceRows(0, rows), start.SliceRows(0, p))
			}
		}
	}
	eachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			got := c.start.Clone()
			if err := AddMulTA(got, c.a, c.b, 0.25); err != nil {
				t.Fatalf("AddMulTA(%v): %v", c.s, err)
			}
			for i := range got.data {
				if math.Float64bits(got.data[i]) != math.Float64bits(c.want.data[i]) {
					t.Fatalf("shape %v: element %d = %v differs bitwise from Axpy reference %v",
						c.s, i, got.data[i], c.want.data[i])
				}
			}
		}
	})
}

// TestAddMulTAZeroCoefficientKeepsNegativeZero pins the Axpy-skip contract:
// a zero coefficient contributes nothing at all, so a -0 already in the
// accumulator must survive (adding +0·x would flip it to +0).
func TestAddMulTAZeroCoefficientKeepsNegativeZero(t *testing.T) {
	// One full 4-row block and a row of six: one vector group and a j tail.
	const rows, p, q = 4, 1, 6
	eachKernel(t, func(t *testing.T) {
		a := NewDense(rows, p) // every coefficient exactly zero
		b := NewDense(rows, q)
		b.Fill(-3.5)
		dst := NewDense(p, q)
		dst.Fill(math.Copysign(0, -1))
		if err := AddMulTA(dst, a, b, 1); err != nil {
			t.Fatalf("AddMulTA: %v", err)
		}
		for j, v := range dst.Row(0) {
			if !math.Signbit(v) {
				t.Errorf("zero coefficients flipped -0 to +0 at column %d: got %v", j, v)
			}
		}
	})
}

func TestAddMulTAShapeErrors(t *testing.T) {
	a, b := NewDense(3, 2), NewDense(4, 5)
	if err := AddMulTA(NewDense(2, 5), a, b, 1); !errors.Is(err, ErrShape) {
		t.Errorf("row mismatch = %v, want ErrShape", err)
	}
	b = NewDense(3, 5)
	if err := AddMulTA(NewDense(2, 4), a, b, 1); !errors.Is(err, ErrShape) {
		t.Errorf("dst mismatch = %v, want ErrShape", err)
	}
}

func TestSliceRows(t *testing.T) {
	m := randomSeededDense(6, 3, 9)
	v := m.SliceRows(2, 5)
	if v.Rows() != 3 || v.Cols() != 3 {
		t.Fatalf("view dims = %dx%d, want 3x3", v.Rows(), v.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if v.At(i, j) != m.At(i+2, j) {
				t.Fatalf("view (%d,%d) = %v, want parent %v", i, j, v.At(i, j), m.At(i+2, j))
			}
		}
	}
	v.Set(0, 0, 42)
	if m.At(2, 0) != 42 {
		t.Error("view mutation not visible in parent")
	}
	if empty := m.SliceRows(4, 4); empty.Rows() != 0 {
		t.Errorf("empty view has %d rows", empty.Rows())
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 7}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SliceRows(%d, %d) must panic", bad[0], bad[1])
				}
			}()
			m.SliceRows(bad[0], bad[1])
		}()
	}
}

// TestSliceRowsAllocationFree pins that taking a view and running the blocked
// kernel through it performs zero heap allocations — the evaluator's chunk
// loop depends on the view staying on the stack.
func TestSliceRowsAllocationFree(t *testing.T) {
	x := randomSeededDense(64, 32, 1)
	w := randomSeededDense(10, 32, 2)
	dst := NewDense(64, 10)
	allocs := testing.AllocsPerRun(100, func() {
		xv := x.SliceRows(8, 40)
		dv := dst.SliceRows(0, 32)
		if err := MulT(&dv, &xv, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SliceRows+MulT allocates %v per run, want 0", allocs)
	}
}

// TestKernelsAllocationFree pins the other kernels a training round leans on
// at zero heap allocations: the backward-pass accumulate, the serial GEMM and
// the dot product at MNIST width.
func TestKernelsAllocationFree(t *testing.T) {
	delta := randomSeededDense(256, 10, 3)
	x := randomSeededDense(256, 64, 4)
	grad := NewDense(10, 64)
	a, c := randomSeededDense(64, 64, 5), randomSeededDense(64, 64, 6)
	dst := NewDense(64, 64)
	u, v := randomSeededDense(1, 784, 7).RawData(), randomSeededDense(1, 784, 8).RawData()
	var sink float64
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"AddMulTA", func() error { return AddMulTA(grad, delta, x, 0.005) }},
		{"Mul64", func() error { return mul(dst, a, c) }},
		{"Dot784", func() error { sink += Dot(u, v); return nil }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, allocs)
		}
		t.Logf("%s: %v allocs per run", tc.name, allocs)
	}
}

func BenchmarkMatMulT(b *testing.B) {
	// 256×features by classes×features is the evaluator's chunk-GEMM shape;
	// 64 features is quick-synthetic scale, 784 is MNIST scale.
	for _, features := range []int{64, 784} {
		a := randomSeededDense(256, features, 1)
		w := randomSeededDense(10, features, 2)
		dst := NewDense(256, 10)
		b.Run(fmt.Sprintf("features=%d", features), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := MulT(dst, a, w); err != nil {
					b.Fatalf("MulT: %v", err)
				}
			}
		})
	}
}

func BenchmarkMatAddMulTA(b *testing.B) {
	for _, features := range []int{64, 784} {
		delta := randomSeededDense(256, 10, 3)
		x := randomSeededDense(256, features, 4)
		grad := NewDense(10, features)
		b.Run(fmt.Sprintf("features=%d", features), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := AddMulTA(grad, delta, x, 0.005); err != nil {
					b.Fatalf("AddMulTA: %v", err)
				}
			}
		})
	}
}
