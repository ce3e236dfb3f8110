package ml

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"eefei/internal/mat"
)

func TestNewModelZeroInit(t *testing.T) {
	m := NewModel(3, 5, Softmax)
	if m.Classes() != 3 || m.Features() != 5 {
		t.Fatalf("shape = %dx%d, want 3x5", m.Classes(), m.Features())
	}
	if m.ParamCount() != 18 {
		t.Errorf("ParamCount = %d, want 18", m.ParamCount())
	}
	if n := m.W.FrobeniusNorm() + mat.Norm2(m.B); n != 0 {
		t.Error("new model must be zero")
	}
}

func TestActivationString(t *testing.T) {
	if Softmax.String() != "softmax" || Sigmoid.String() != "sigmoid" {
		t.Error("activation names wrong")
	}
	if Activation(99).String() == "" {
		t.Error("unknown activation must still print")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewModel(2, 2, Softmax)
	m.W.Set(0, 0, 1)
	c := m.Clone()
	c.W.Set(0, 0, 5)
	c.B[0] = 7
	if m.W.At(0, 0) != 1 || m.B[0] != 0 {
		t.Error("Clone must not share storage")
	}
}

func TestCopyFromAndScale(t *testing.T) {
	src := NewModel(2, 3, Sigmoid)
	src.W.Fill(2)
	src.B[1] = 4
	dst := NewModel(2, 3, Softmax)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if dst.Act != Sigmoid || dst.W.At(1, 2) != 2 || dst.B[1] != 4 {
		t.Error("CopyFrom incomplete")
	}
	bad := NewModel(3, 3, Softmax)
	if err := bad.CopyFrom(src); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestAddScaled(t *testing.T) {
	a := NewModel(2, 2, Softmax)
	b := NewModel(2, 2, Softmax)
	b.W.Fill(1)
	b.B[0] = 2
	if err := a.AddScaled(3, b); err != nil {
		t.Fatalf("AddScaled: %v", err)
	}
	if a.W.At(1, 1) != 3 || a.B[0] != 6 {
		t.Error("AddScaled wrong values")
	}
	if err := a.AddScaled(1, NewModel(1, 2, Softmax)); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestParamDistance(t *testing.T) {
	a := NewModel(1, 2, Softmax)
	b := NewModel(1, 2, Softmax)
	b.W.Set(0, 0, 3)
	b.B[0] = 4
	if got := a.ParamDistance(b); math.Abs(got-5) > 1e-12 {
		t.Errorf("ParamDistance = %v, want 5", got)
	}
	if a.ParamDistance(a) != 0 {
		t.Error("self distance must be 0")
	}
}

func TestLogitsAndPredict(t *testing.T) {
	m := NewModel(3, 2, Softmax)
	m.W.SetRow(0, []float64{1, 0})
	m.W.SetRow(1, []float64{0, 1})
	m.W.SetRow(2, []float64{-1, -1})
	m.B[1] = 0.5

	logits := make([]float64, 3)
	if err := m.Logits(logits, []float64{2, 1}); err != nil {
		t.Fatalf("Logits: %v", err)
	}
	want := []float64{2, 1.5, -3}
	for i, w := range want {
		if math.Abs(logits[i]-w) > 1e-12 {
			t.Errorf("logit[%d] = %v, want %v", i, logits[i], w)
		}
	}
	pred, err := m.Predict([]float64{2, 1})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if pred != 0 {
		t.Errorf("Predict = %d, want 0", pred)
	}
}

func TestSoftmaxProbabilities(t *testing.T) {
	m := NewModel(3, 1, Softmax)
	m.W.SetRow(0, []float64{1})
	m.W.SetRow(1, []float64{2})
	m.W.SetRow(2, []float64{3})
	p := make([]float64, 3)
	if err := m.Probabilities(p, []float64{1}); err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	if sum := p[0] + p[1] + p[2]; math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %v, want 1", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax ordering wrong: %v", p)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := NewModel(2, 1, Softmax)
	m.W.SetRow(0, []float64{1000})
	m.W.SetRow(1, []float64{-1000})
	p := make([]float64, 2)
	if err := m.Probabilities(p, []float64{1}); err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Fatal("softmax must not produce NaN for extreme logits")
	}
	if math.Abs(p[0]-1) > 1e-9 {
		t.Errorf("p[0] = %v, want ≈1", p[0])
	}
}

func TestSigmoidProbabilities(t *testing.T) {
	m := NewModel(2, 1, Sigmoid)
	m.W.SetRow(0, []float64{0})
	m.W.SetRow(1, []float64{800})
	p := make([]float64, 2)
	if err := m.Probabilities(p, []float64{1}); err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	if math.Abs(p[0]-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v, want 0.5", p[0])
	}
	if math.IsNaN(p[1]) || math.Abs(p[1]-1) > 1e-9 {
		t.Errorf("sigmoid(800) = %v, want ≈1 without NaN", p[1])
	}
	// Negative extreme.
	m.W.SetRow(1, []float64{-800})
	if err := m.Probabilities(p, []float64{1}); err != nil {
		t.Fatalf("Probabilities: %v", err)
	}
	if math.IsNaN(p[1]) || p[1] > 1e-9 {
		t.Errorf("sigmoid(-800) = %v, want ≈0 without NaN", p[1])
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	rng := mat.NewRNG(13)
	m := NewModel(4, 7, Sigmoid)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = rng.Norm()
	}
	for i := range m.B {
		m.B[i] = rng.Norm()
	}
	var back Model
	if err := back.UnmarshalBinaryReuse(m.AppendBinary(nil)); err != nil {
		t.Fatalf("UnmarshalBinaryReuse: %v", err)
	}
	if back.Act != Sigmoid || back.Classes() != 4 || back.Features() != 7 {
		t.Fatalf("shape/activation lost: %v %dx%d", back.Act, back.Classes(), back.Features())
	}
	if m.ParamDistance(&back) != 0 {
		t.Error("round-trip must be exact")
	}
}

// TestModelBinaryMarshaler pins the wire bytes of a 1×2 model: a change to
// the layout must bump modelMagic's version byte, not slip through.
func TestModelBinaryMarshaler(t *testing.T) {
	m := NewModel(1, 2, Softmax)
	m.W.Set(0, 1, 3.25)
	m.B[0] = -1
	want := []byte{
		'E', 'F', 'M', 1, // magic, version
		1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // softmax, 1 class, 2 features
		0, 0, 0, 0, 0, 0, 0, 0, // W[0][0] = 0
		0, 0, 0, 0, 0, 0, 0x0a, 0x40, // W[0][1] = 3.25
		0, 0, 0, 0, 0, 0, 0xf0, 0xbf, // B[0] = -1
	}
	data := m.AppendBinary(nil)
	if !bytes.Equal(data, want) {
		t.Fatalf("encoded % x\nwant    % x", data, want)
	}
	var back Model
	if err := back.UnmarshalBinaryReuse(data); err != nil {
		t.Fatalf("UnmarshalBinaryReuse: %v", err)
	}
	if back.W.At(0, 1) != 3.25 || back.B[0] != -1 {
		t.Error("binary round-trip lost data")
	}
}

// Property: serialization round-trips exactly for random small models.
func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mat.NewRNG(seed)
		classes := 1 + rng.Intn(5)
		features := 1 + rng.Intn(9)
		m := NewModel(classes, features, Softmax)
		for i := range m.W.RawData() {
			m.W.RawData()[i] = rng.Norm()
		}
		var back Model
		if err := back.UnmarshalBinaryReuse(m.AppendBinary(nil)); err != nil {
			return false
		}
		return m.ParamDistance(&back) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
