package ml

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"eefei/internal/mat"
)

// sameBits reports whether two models agree in every bit of every parameter
// (ParamDistance cannot: NaN ≠ NaN and −0 = 0).
func sameBits(a, b *Model) bool {
	if a.Act != b.Act || a.Classes() != b.Classes() || a.Features() != b.Features() {
		return false
	}
	av, bv := a.W.RawData(), b.W.RawData()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	for i := range a.B {
		if math.Float64bits(a.B[i]) != math.Float64bits(b.B[i]) {
			return false
		}
	}
	return true
}

// drifted returns m moved by a relative step of about scale per parameter —
// what one late-training round does to a model.
func drifted(m *Model, seed uint64, scale float64) *Model {
	rng := mat.NewRNG(seed)
	out := m.Clone()
	for i, v := range out.W.RawData() {
		out.W.RawData()[i] = v * (1 + rng.NormScaled(0, scale))
	}
	for i, v := range out.B {
		out.B[i] = v * (1 + rng.NormScaled(0, scale))
	}
	return out
}

// eachKernel runs fn on the portable block coder and then on the AVX2 one by
// flipping useVec for its duration, so a test that calls it must not run in
// parallel with another.
func eachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, vec := range []bool{false, true} {
		name := "portable"
		if vec {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if vec && !mat.HasAVX2() {
				t.Skip("no AVX2 with OS-enabled YMM state on this host: only the portable coder exists here")
			}
			defer func(saved bool) { useVec = saved }(useVec)
			useVec = vec
			fn(t)
		})
	}
}

// ulpStep returns m with the bit pattern of parameter i (W's, then B's) moved
// by d units in the last place.
func ulpStep(m *Model, i int, d int64) *Model {
	out := m.Clone()
	v := out.B
	if w := out.W.RawData(); i < len(w) {
		v = w
	} else {
		i -= len(w)
	}
	v[i] = math.Float64frombits(math.Float64bits(v[i]) + uint64(d))
	return out
}

// codeLossless is what a sender does with AppendDelta: the delta body when it
// is smaller, the float64 serialization when it is not.
func codeLossless(t *testing.T, cur *Model, pred ...*Model) (body []byte, coded bool) {
	t.Helper()
	prefix := []byte{7, 7, 7}
	out, ok := AppendDelta(prefix, cur, pred...)
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("AppendDelta clobbered the destination prefix")
	}
	if !ok {
		if len(out) != len(prefix) {
			t.Fatalf("refused AppendDelta left %d bytes behind", len(out)-len(prefix))
		}
		return cur.AppendBinary(nil), false
	}
	return out[3:], true
}

// TestDeltaRoundTrip is the codec's property: whatever the values and however
// poor the prediction, decoding with the same predictors returns every bit,
// and after the raw fallback a body is never longer than the float64 one.
func TestDeltaRoundTrip(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0dead0000beef)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), nan1, nan2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	adversarial := func(seed uint64, classes, features int) *Model {
		rng := mat.NewRNG(seed)
		m := NewModel(classes, features, Sigmoid)
		fill := func(v []float64) {
			for i := range v {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
		fill(m.W.RawData())
		fill(m.B)
		return m
	}
	negated := func(m *Model) *Model {
		out := m.Clone()
		mat.Scale(out.W.RawData(), -1)
		mat.Scale(out.B, -1)
		return out
	}
	filled := func(classes, features int, v float64) *Model {
		m := NewModel(classes, features, Softmax)
		m.W.Fill(v)
		for i := range m.B {
			m.B[i] = v
		}
		return m
	}

	type tc struct {
		name      string
		cur       *Model
		pred      []*Model
		wantCoded bool // the prediction is good enough that the delta body must win
	}
	var cases []tc
	// Shapes whose parameter counts leave 0, 1 and odd remainders in the last
	// block of W and of B; 1×1 is the smallest model there is.
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {3, 5}, {8, 8}, {10, 64}, {9, 17}} {
		base := randomModel(uint64(shape[0]*100+shape[1]), shape[0], shape[1])
		prev := drifted(base, 2, 1e-5)
		next := drifted(base, 3, 1e-5)
		warm := shape[0]*shape[1] >= 8 // a one-block model cannot amortise its header
		cases = append(cases,
			tc{"first-order", next, []*Model{base}, warm},
			tc{"second-order", next, []*Model{base, base, prev}, warm},
			tc{"local-step", next, []*Model{base, drifted(prev, 4, 1e-5), prev}, warm},
			tc{"identical", base, []*Model{base}, true},
			tc{"unrelated", randomModel(99, shape[0], shape[1]), []*Model{base}, false},
			tc{"sign-flips", negated(base), []*Model{base}, false},
			tc{"specials-vs-random", adversarial(5, shape[0], shape[1]), []*Model{base}, false},
			tc{"random-vs-specials", base, []*Model{adversarial(6, shape[0], shape[1])}, false},
			tc{"specials-second-order", adversarial(7, shape[0], shape[1]),
				[]*Model{adversarial(8, shape[0], shape[1]), adversarial(9, shape[0], shape[1]), adversarial(10, shape[0], shape[1])}, false},
			tc{"all-equal", filled(shape[0], shape[1], 0.25), []*Model{filled(shape[0], shape[1], 0.25), filled(shape[0], shape[1], 0.5), filled(shape[0], shape[1], 0.5)}, true},
			tc{"all-nan", filled(shape[0], shape[1], nan2), []*Model{filled(shape[0], shape[1], nan2)}, true},
			// Inf − Inf is NaN: the prediction falls back to a's own bits.
			tc{"nan-prediction", filled(shape[0], shape[1], nan1), []*Model{filled(shape[0], shape[1], nan1), filled(shape[0], shape[1], math.Inf(1)), filled(shape[0], shape[1], math.Inf(1))}, true},
			tc{"subnormal-walk", filled(shape[0], shape[1], 5e-324), []*Model{filled(shape[0], shape[1], 1.5e-323), filled(shape[0], shape[1], 1.5e-323), filled(shape[0], shape[1], 2.5e-323)}, true},
			// The one difference is −1, the value a sign fold must not map to 0.
			tc{"minus-one-ulp", ulpStep(base, shape[0]*shape[1]/2, -1), []*Model{base}, true},
		)
	}
	eachKernel(t, func(t *testing.T) {
		for _, c := range cases {
			name := c.name
			body, coded := codeLossless(t, c.cur, c.pred...)
			if len(body) > c.cur.EncodedSize() {
				t.Errorf("%s %dx%d: %d bytes, raw is %d", name, c.cur.Classes(), c.cur.Features(), len(body), c.cur.EncodedSize())
			}
			if c.wantCoded && !coded {
				t.Errorf("%s %dx%d: a good prediction fell back to raw", name, c.cur.Classes(), c.cur.Features())
			}
			if !coded {
				continue
			}
			// Cut to its length, no slack after the last block: the vector
			// decoder's loads must stop where the body does.
			body = bytes.Clone(body)[:len(body):len(body)]
			var back Model
			if err := ApplyDelta(&back, body, c.pred...); err != nil {
				t.Errorf("%s %dx%d: decode: %v", name, c.cur.Classes(), c.cur.Features(), err)
				continue
			}
			if !sameBits(&back, c.cur) {
				t.Errorf("%s %dx%d: decode changed bits", name, c.cur.Classes(), c.cur.Features())
			}
			// In place: the successor overwrites the predictor the link no longer
			// needs (the last one), storage and all.
			last := c.pred[len(c.pred)-1].Clone()
			pred := append(append([]*Model(nil), c.pred[:len(c.pred)-1]...), last)
			for i, p := range c.pred[:len(c.pred)-1] {
				if p == c.pred[len(c.pred)-1] {
					pred[i] = last
				}
			}
			w0 := &last.W.RawData()[0]
			if err := ApplyDelta(last, body, pred...); err != nil || !sameBits(last, c.cur) {
				t.Errorf("%s %dx%d: in-place decode: err %v", name, c.cur.Classes(), c.cur.Features(), err)
			}
			if w0 != &last.W.RawData()[0] {
				t.Errorf("%s: in-place decode reallocated the parameter storage", name)
			}
		}
	})
}

// TestDeltaMinusOneULP pins the sign fold. A block whose only non-zero
// differences are −1 must be stored one bit wide: a fold of x ^ x>>63 maps
// −1 to 0, so such a block claimed "predicted exactly" (n = 0) and decoded one
// ULP above the value sent — on the wire, a pair desynchronised for good.
func TestDeltaMinusOneULP(t *testing.T) {
	paper := randomModel(1, 10, 784) // W: 490 full blocks, no tail; B: one short block
	small := randomModel(2, 3, 7)    // W: one full block and a tail of five
	second := []*Model{paper, drifted(paper, 3, 1e-5), drifted(paper, 4, 1e-5)}
	// cur equal to the second-order prediction, bit for bit.
	predicted := paper.Clone()
	for i, v := range predicted.W.RawData() {
		predicted.W.RawData()[i] = math.Float64frombits(predict(math.Float64bits(v),
			math.Float64bits(second[1].W.RawData()[i]), math.Float64bits(second[2].W.RawData()[i])))
	}
	for i, v := range predicted.B {
		predicted.B[i] = math.Float64frombits(predict(math.Float64bits(v), math.Float64bits(second[1].B[i]), math.Float64bits(second[2].B[i])))
	}
	allW := paper.Clone() // a whole full block at −1
	for i := 32; i < 48; i++ {
		allW = ulpStep(allW, i, -1)
	}
	for _, c := range []struct {
		name    string
		cur     *Model
		pred    []*Model
		wantLen int // every block one byte but the stepped one's, 1 + ⌈m·1/8⌉
	}{
		{"W[5]", ulpStep(paper, 5, -1), []*Model{paper}, 16 + 489 + 3 + 1},
		{"W[32:48]", allW, []*Model{paper}, 16 + 489 + 3 + 1},
		{"B-tail", ulpStep(paper, 7840+2, -1), []*Model{paper}, 16 + 490 + 1 + 2},
		{"W-tail", ulpStep(small, 18, -1), []*Model{small}, 16 + 1 + 1 + 1 + 1},
		{"second-order", ulpStep(predicted, 700, -1), second, 16 + 489 + 3 + 1},
		{"second-order-B", ulpStep(predicted, 7849, -1), second, 16 + 490 + 1 + 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			eachKernel(t, func(t *testing.T) {
				body, ok := AppendDelta(nil, c.cur, c.pred...)
				if !ok {
					t.Fatal("fell back to raw")
				}
				if len(body) != c.wantLen {
					t.Errorf("%d-byte body, want %d", len(body), c.wantLen)
				}
				var back Model
				if err := ApplyDelta(&back, body, c.pred...); err != nil || !sameBits(&back, c.cur) {
					t.Errorf("decode err %v, or it changed bits", err)
				}
			})
		})
	}
}

// packBlock appends one block as the format comment in delta.go lays it out,
// bit by bit: width n, then each difference plus 2^(n−1) in n bits at bit j·n.
func packBlock(dst []byte, n uint, diffs []uint64) []byte {
	var bias uint64
	if n > 0 {
		bias = 1 << (n - 1)
	}
	packed := make([]byte, (len(diffs)*int(n)+7)/8)
	for j, x := range diffs {
		for k := range n {
			if (x+bias)>>k&1 == 1 {
				at := uint(j)*n + k
				packed[at/8] |= 1 << (at % 8)
			}
		}
	}
	return append(append(dst, byte(n)), packed...)
}

// TestDeltaBitWidths codes one block at each width worth pinning — the ends
// of every lane path and of the portable one — plus a short tail block at 9
// bits and a one-value block at 57. The body must be packBlock's, byte for
// byte: a full block is 1 + 2n bytes, and 129 where 57–63 are stored as 64.
// It also decodes hand-made bodies at 57–63 bits, which the encoder never
// writes and the decoder must accept.
func TestDeltaBitWidths(t *testing.T) {
	widths := []uint{0, 1, 7, 8, 9, 31, 55, 56, 57, 63, 64}
	stored := func(n uint) uint {
		if n > deltaWidest {
			return 64
		}
		return n
	}
	// diffs returns m differences that need exactly n bits: both ends of the
	// n-bit range and random values between.
	rng := mat.NewRNG(3)
	diffs := func(m int, n uint) []uint64 {
		d := make([]uint64, m)
		if n == 0 {
			return d
		}
		for j := range d {
			d[j] = rng.Uint64()>>(64-n) - 1<<(n-1)
		}
		d[0], d[m-1] = -(1 << (n - 1)), 1<<(n-1)-1
		return d
	}
	features := deltaBlock*len(widths) + 5
	pred := randomModel(1, 1, features)
	var wd, bd [][]uint64
	for _, n := range widths {
		wd = append(wd, diffs(deltaBlock, n))
	}
	wd = append(wd, diffs(5, 9))
	bd = append(bd, diffs(1, 57))
	// body lays the blocks out at widths w(n); cur is pred moved by them.
	body := func(w func(uint) uint) []byte {
		out := appendDeltaBody(nil, pred, pred, pred, pred)[:deltaHeaderLen]
		for k, d := range wd {
			n := uint(9)
			if k < len(widths) {
				n = widths[k]
			}
			out = packBlock(out, w(n), d)
		}
		return packBlock(out, w(57), bd[0])
	}
	cur := pred.Clone()
	w := cur.W.RawData()
	for k, d := range wd {
		for j, x := range d {
			i := k*deltaBlock + j
			w[i] = math.Float64frombits(math.Float64bits(w[i]) + x)
		}
	}
	cur.B[0] = math.Float64frombits(math.Float64bits(cur.B[0]) + bd[0][0])

	want := body(stored)
	wantLen := deltaHeaderLen + (1 + 6) + (1 + 8)
	for _, n := range widths {
		if n > deltaWidest {
			wantLen += 129
		} else {
			wantLen += 1 + 2*int(n)
		}
	}
	if len(want) != wantLen {
		t.Fatalf("packBlock laid out %d bytes, want %d", len(want), wantLen)
	}
	eachKernel(t, func(t *testing.T) {
		got, ok := AppendDelta(nil, cur, pred)
		if !ok {
			t.Fatal("fell back to raw")
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body differs from the %d-byte layout", len(got), len(want))
		}
		var back Model
		if err := ApplyDelta(&back, got, pred); err != nil || !sameBits(&back, cur) {
			t.Fatalf("decode err %v, or it changed bits", err)
		}
		for _, n := range []uint{57, 58, 61, 63} {
			// Every block that fits n bits and needs more than 56 takes n.
			hand := body(func(m uint) uint {
				if m > deltaWidest && m <= n {
					return n
				}
				return stored(m)
			})
			if err := ApplyDelta(&back, hand, pred); err != nil || !sameBits(&back, cur) {
				t.Errorf("hand-made body at %d bits: decode err %v, or it changed bits", n, err)
			}
		}
	})
}

// TestDeltaLateTrainingSize pins what the codec is for: a model that moved by
// parts in 10⁵ against a second-order prediction costs about four and a half
// bytes a parameter (it measures 4.48).
func TestDeltaLateTrainingSize(t *testing.T) {
	cur, a, b, c := lateTrainingModels()
	body, ok := AppendDelta(nil, cur, a, b, c)
	if !ok {
		t.Fatal("late-training delta fell back to raw")
	}
	if perParam := float64(len(body)) / float64(cur.ParamCount()); perParam > 4.6 {
		t.Errorf("%.2f bytes per parameter, want ≤ 4.6 (raw is 8)", perParam)
	}
}

func TestDeltaRefusals(t *testing.T) {
	base := randomModel(1, 3, 9)
	cur := drifted(base, 2, 1e-6)
	body, ok := AppendDelta(nil, cur, base)
	if !ok {
		t.Fatal("AppendDelta refused a near-identical model")
	}
	other := randomModel(1, 3, 10)
	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), body...))
	}
	for _, c := range []struct {
		name string
		data []byte
		pred []*Model
	}{
		{"empty", nil, []*Model{base}},
		{"header-only", body[:deltaHeaderLen], []*Model{base}},
		{"short", body[:len(body)-1], []*Model{base}},
		{"trailing", append(append([]byte(nil), body...), 0), []*Model{base}},
		{"bad-magic", corrupt(func(b []byte) []byte { b[2] = 'M'; return b }), []*Model{base}},
		{"other-shape-header", corrupt(func(b []byte) []byte { b[12]++; return b }), []*Model{base}},
		{"huge-shape-header", corrupt(func(b []byte) []byte { b[11], b[15] = 0x7f, 0x7f; return b }), []*Model{base}},
		{"block-width-65", corrupt(func(b []byte) []byte { b[deltaHeaderLen] = 65; return b }), []*Model{base}},
		{"block-width-255", corrupt(func(b []byte) []byte { b[deltaHeaderLen] = 255; return b }), []*Model{base}},
		{"no-predictor", body, nil},
		{"two-predictors", body, []*Model{base, base}},
		{"nil-predictor", body, []*Model{nil}},
		{"empty-predictor", body, []*Model{{}}},
		{"predictor-of-other-shape", body, []*Model{other}},
		{"mixed-shape-predictors", body, []*Model{base, base, other}},
	} {
		var back Model
		if err := ApplyDelta(&back, c.data, c.pred...); !errors.Is(err, ErrDelta) {
			t.Errorf("%s: err = %v, want ErrDelta", c.name, err)
		}
	}
	// The encoder turns predictors it cannot use into "send raw", never a panic.
	for _, pred := range [][]*Model{nil, {base, base}, {nil}, {{}}, {other}, {base, base, other}} {
		if out, ok := AppendDelta(nil, cur, pred...); ok || len(out) != 0 {
			t.Errorf("AppendDelta accepted predictors %v", pred)
		}
	}
}

// lateTrainingModels is the benchmark workload: the 10×784 model of the
// paper's task (7 850 parameters) a few thousand rounds in, where a round
// moves a weight by parts in 10⁵ and the move itself changes by a tenth of
// that from one round to the next.
func lateTrainingModels() (cur, a, b, c *Model) {
	c = randomModel(1, 10, 784)
	step := drifted(c, 2, 1e-5)
	_ = step.AddScaled(-1, c) // the per-round move; shapes agree by construction
	a = c.Clone()
	_ = a.AddScaled(1, step)
	cur = a.Clone()
	_ = cur.AddScaled(1, drifted(step, 3, 0.1))
	return cur, a, a, c
}

// TestDeltaAllocationFree pins both passes at zero allocations once the
// destination buffer and model are warm — the state a link is in from its
// second round on.
func TestDeltaAllocationFree(t *testing.T) {
	cur, a, b, c := lateTrainingModels()
	buf, ok := AppendDelta(nil, cur, a, b, c)
	if !ok {
		t.Fatal("late-training delta fell back to raw")
	}
	if avg := testing.AllocsPerRun(50, func() { buf, _ = AppendDelta(buf[:0], cur, a, b, c) }); avg != 0 {
		t.Errorf("AppendDelta allocates %.1f objects per pass, want 0", avg)
	}
	dst := c.Clone()
	if avg := testing.AllocsPerRun(50, func() {
		if err := ApplyDelta(dst, buf, a, b, c); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ApplyDelta allocates %.1f objects per pass, want 0", avg)
	}
	if !sameBits(dst, cur) {
		t.Error("warm decode changed bits")
	}
}

func FuzzApplyDelta(f *testing.F) {
	base := randomModel(1, 3, 8)
	prev := drifted(base, 2, 1e-6)
	cur := drifted(base, 3, 1e-6)
	first, ok1 := AppendDelta(nil, cur, base)
	second, ok2 := AppendDelta(nil, cur, base, base, prev)
	if !ok1 || !ok2 {
		f.Fatal("seed bodies fell back to raw")
	}
	f.Add(first, false)
	f.Add(second, true)
	f.Add(first[:len(first)-2], false)
	f.Add(append(append([]byte(nil), second...), 0), true)
	f.Add([]byte("EFD\x01short"), false) // the retired byte-width magic
	f.Add([]byte("EFD\x02short"), false)
	f.Add([]byte{}, true)
	// Bodies at every width the lanes leave to the portable coder: 1–7 bits,
	// as the encoder writes them, and 57–63, which only a hand can.
	for n := uint(1); n <= 64; n++ {
		step := base.Clone()
		moved := func(v []float64) {
			for i := range v {
				v[i] = math.Float64frombits(math.Float64bits(v[i]) - 1<<(n-1))
			}
		}
		moved(step.W.RawData())
		moved(step.B)
		switch {
		case n <= 7 || n == 64:
			f.Add(appendDeltaBody(nil, step, base, base, base), false)
		case n > deltaWidest:
			hand := appendDeltaBody(nil, step, base, base, base)[:deltaHeaderLen]
			for _, m := range []int{deltaBlock, 8, 3} { // W: a full block and a tail; B
				d := make([]uint64, m)
				for j := range d {
					d[j] = -(1 << (n - 1))
				}
				hand = packBlock(hand, n, d)
			}
			f.Add(hand, false)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, secondOrder bool) {
		pred := []*Model{base}
		if secondOrder {
			pred = []*Model{base, base, prev}
		}
		// Both decoders the host has refuse alike, message for message, or
		// decode alike.
		defer func(saved bool) { useVec = saved }(useVec)
		var backs [2]Model
		var errs [2]error
		for k, vec := range []bool{false, mat.HasAVX2()} {
			useVec = vec
			errs[k] = ApplyDelta(&backs[k], data, pred...)
		}
		if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
			t.Fatalf("portable decoder: %v; vector decoder: %v", errs[0], errs[1])
		}
		back := backs[0]
		if err := errs[0]; err != nil {
			if !errors.Is(err, ErrDelta) {
				t.Fatalf("err = %v, want ErrDelta", err)
			}
			return
		}
		if !sameBits(&backs[1], &back) {
			t.Fatal("the portable and vector decoders disagree")
		}
		// Whatever decodes has the predictors' shape — the only storage a body
		// can make the decoder allocate — and codes back to a body that decodes
		// to the same bits (the input itself may be a wider, non-canonical
		// coding of them).
		if back.Classes() != base.Classes() || back.Features() != base.Features() {
			t.Fatalf("decoded a %dx%d model from %dx%d predictors", back.Classes(), back.Features(), base.Classes(), base.Features())
		}
		again, ok := AppendDelta(nil, &back, pred...)
		if !ok {
			return // not smaller than raw: a sender would not have coded it
		}
		var twice Model
		if err := ApplyDelta(&twice, again, pred...); err != nil || !sameBits(&twice, &back) {
			t.Fatalf("re-coded body does not round-trip: %v", err)
		}
	})
}

// FuzzDeltaRoundTrip is the encoder's property on every coder the host has:
// for any cur and predictors, AppendDelta then ApplyDelta returns cur's bits,
// and the portable and vector coders write the same body. Shapes go up to
// 10×800. cur is the prediction moved parameter by parameter as the fuzz
// bytes say: not at all, ±1, ±2^(56+w) or ±2^w ULP (w from bits 4–6), a copy
// of the first predictor, a special (±0, ±Inf, payload NaNs), unrelated, or a
// late-training step; and the last predictor takes a special where a byte's
// top bit is set.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint8(9), uint16(783), false, uint64(1), []byte{0, 0, 0, 1})
	f.Add(uint8(9), uint16(783), true, uint64(6), []byte{0})
	f.Add(uint8(2), uint16(6), true, uint64(2), []byte{2, 3, 4, 5, 6, 7, 0x81})
	f.Add(uint8(0), uint16(0), false, uint64(3), []byte{})
	f.Add(uint8(9), uint16(799), true, uint64(4), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0x85})
	f.Add(uint8(15), uint16(0), true, uint64(5), []byte{0, 0, 0, 7, 0, 0, 0, 15})
	// Every block at one width: −2^(n−1) ULP needs n bits, for n = 1…7 (the
	// portable coder's) and 57…64 (stored as 64).
	for w := byte(0); w < 8; w++ {
		f.Add(uint8(9), uint16(783), true, uint64(10+w), []byte{3 | 8 | w<<4})
		f.Add(uint8(9), uint16(783), false, uint64(20+w), []byte{2 | 8 | w<<4})
	}
	f.Add(uint8(4), uint16(40), true, uint64(30), []byte{0x03, 0x1b, 0, 0x2a, 0x6b, 1, 0x7a, 0x3b})
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001)}
	f.Fuzz(func(t *testing.T, classesRaw uint8, featRaw uint16, secondOrder bool, seed uint64, mix []byte) {
		classes, features := 1+int(classesRaw)%10, 1+int(featRaw)%800
		rng := mat.NewRNG(seed)
		pred := []*Model{randomModel(seed, classes, features)}
		if secondOrder {
			pred = append(pred, drifted(pred[0], seed+1, 1e-5), drifted(pred[0], seed+2, 1e-5))
		}
		cur := pred[0].Clone()
		tensors := func(m *Model) [2][]float64 { return [2][]float64{m.W.RawData(), m.B} }
		ta, tb, tc, tcur := tensors(pred[0]), tensors(pred[len(pred)/2]), tensors(pred[len(pred)-1]), tensors(cur)
		j := 0
		for x := range tcur {
			for i := range tcur[x] {
				k := byte(rng.Intn(256))
				if len(mix) > 0 {
					k = mix[j%len(mix)]
				}
				j++
				if k&0x80 != 0 {
					tc[x][i] = specials[rng.Intn(len(specials))]
				}
				p := predict(math.Float64bits(ta[x][i]), math.Float64bits(tb[x][i]), math.Float64bits(tc[x][i]))
				sign := uint64(1)
				if k&8 != 0 {
					sign = ^uint64(0) // −1
				}
				switch k & 7 {
				case 1:
					p += sign
				case 2:
					p += sign << (56 + k>>4&7) // 57–64 bits
				case 3:
					p += sign << (k >> 4 & 7) // 1–9 bits
				case 4:
					p = math.Float64bits(specials[rng.Intn(len(specials))])
				case 5:
					p = math.Float64bits(ta[x][i])
				case 6:
					p = math.Float64bits(rng.Norm())
				case 7:
					p += uint64(rng.Intn(1<<20)) - 1<<19
				}
				tcur[x][i] = math.Float64frombits(p)
			}
		}
		defer func(saved bool) { useVec = saved }(useVec)
		var bodies [2][]byte
		for k, vec := range []bool{false, mat.HasAVX2()} {
			useVec = vec
			body, ok := AppendDelta(nil, cur, pred...)
			if !ok {
				continue
			}
			bodies[k] = body
			var back Model
			if err := ApplyDelta(&back, body, pred...); err != nil || !sameBits(&back, cur) {
				t.Fatalf("%dx%d useVec=%v: decode err %v, or it changed bits", classes, features, vec, err)
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%dx%d: the portable and vector coders wrote different bodies (%d and %d bytes)",
				classes, features, len(bodies[0]), len(bodies[1]))
		}
	})
}

// TestDeltaCutBodiesAgree decodes every prefix of bodies whose tensors end
// in full blocks — where the vector decoder's Go scan must stop short of the
// body's end — on both decoders: each prefix is refused alike, message for
// message, or decoded alike. And the blocks the scan hands the assembly are
// read, at most 1 + 14n/8 + 16 bytes from a block's start, inside the body.
// The bodies span widths 0, 1 (−1 ULP), narrow, mid and 64 bits.
func TestDeltaCutBodiesAgree(t *testing.T) {
	if !mat.HasAVX2() {
		t.Skip("no AVX2 with OS-enabled YMM state on this host: only the portable coder exists here")
	}
	defer func(saved bool) { useVec = saved }(useVec)
	for _, shape := range [][2]int{{16, 1}, {16, 16}, {2, 16}, {3, 7}} {
		base := randomModel(uint64(shape[0]*100+shape[1]), shape[0], shape[1])
		for _, cur := range []*Model{base, ulpStep(base, 3, -1), ulpStep(base, 3, 100), drifted(base, 5, 1e-3),
			drifted(base, 6, 1e-12), randomModel(7, shape[0], shape[1])} {
			// An unrelated model codes at 64 bits, longer than raw: a sender
			// would not send it, but a decoder must take it.
			body, ok := AppendDelta(nil, cur, base)
			if !ok {
				body = appendDeltaBody(nil, cur, base, base, base)
			}
			for cut := 0; cut <= len(body); cut++ {
				data := append(make([]byte, 0, cut), body[:cut]...)
				var backs [2]Model
				var errs [2]error
				for k, vec := range []bool{false, true} {
					useVec = vec
					errs[k] = ApplyDelta(&backs[k], data, base)
				}
				if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || errs[0] == nil && !sameBits(&backs[0], &backs[1]) {
					t.Fatalf("%dx%d cut to %d of %d bytes: portable %v, vector %v", shape[0], shape[1], cut, len(body), errs[0], errs[1])
				}
				if cut < deltaHeaderLen {
					continue
				}
				src := data[deltaHeaderLen:]
				done, rest := decodeBlocksVec(make([]float64, shape[0]*shape[1]), src,
					base.W.RawData(), base.W.RawData(), base.W.RawData())
				off := 0
				for range done / deltaBlock {
					n := int(src[off])
					if off+1+14*n/8+16 > len(src) {
						t.Fatalf("%dx%d cut to %d: the assembly was handed a block it reads past the body", shape[0], shape[1], cut)
					}
					off += 1 + 2*n
				}
				if off != len(src)-len(rest) {
					t.Fatalf("%dx%d cut to %d: %d blocks span %d bytes, the scan says %d", shape[0], shape[1], cut, done/deltaBlock, off, len(src)-len(rest))
				}
			}
		}
	}
}

var deltaSink int

// deltaPass is one coding pass a codec benchmark times: cur against the
// prediction a + (b − c).
type deltaPass struct {
	name          string
	cur, a, pb, c *Model
}

// deltaPasses are the passes the codec benchmarks time, on the paper's
// 10×784 model: late training (lateTrainingModels), and an early round whose
// model shares nothing with the prediction, so that every block is at 64 bits
// and the coded body is longer than raw.
func deltaPasses(b *testing.B) []deltaPass {
	cur, a, pb, c := lateTrainingModels()
	wide := deltaPass{"wide", randomModel(4, 10, 784), randomModel(5, 10, 784), randomModel(6, 10, 784), randomModel(7, 10, 784)}
	if n := len(appendDeltaBody(nil, wide.cur, wide.a, wide.pb, wide.c)); n != deltaHeaderLen+490*129+1+80 {
		b.Fatalf("wide pass codes to %d bytes: not every block is at 64 bits", n)
	}
	return []deltaPass{{"late", cur, a, pb, c}, wide}
}

func BenchmarkAppendDelta(b *testing.B) {
	for _, p := range deltaPasses(b) {
		b.Run(p.name, func(b *testing.B) {
			buf := appendDeltaBody(nil, p.cur, p.a, p.pb, p.c)
			b.SetBytes(int64(p.cur.ParamCount() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendDelta(buf[:0], p.cur, p.a, p.pb, p.c)
			}
			deltaSink = len(buf)
		})
	}
}

func BenchmarkApplyDelta(b *testing.B) {
	for _, p := range deltaPasses(b) {
		b.Run(p.name, func(b *testing.B) {
			buf := appendDeltaBody(nil, p.cur, p.a, p.pb, p.c)
			dst := p.c.Clone()
			b.SetBytes(int64(p.cur.ParamCount() * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ApplyDelta(dst, buf, p.a, p.pb, p.c); err != nil {
					b.Fatal(err)
				}
			}
			deltaSink = dst.Classes()
		})
	}
}
