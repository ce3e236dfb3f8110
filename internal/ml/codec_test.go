package ml

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The model codecs (AppendBinary / UnmarshalBinaryReuse, AppendQuantized /
// DequantizeInto) exist so the wire protocol can encode into pooled frame
// buffers and decode into long-lived scratch models. They must keep their
// documented layouts and be allocation-free once the scratch has warmed up.

// TestAppendBinaryMatchesMarshal holds AppendBinary to the documented layout
// marshalled field by field through encoding/binary's reflection path:
// magic, activation, classes, features, W row-major, B.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	m := randomModel(3, 7, 13)
	var ref bytes.Buffer
	for _, v := range []any{modelMagic, []uint32{uint32(m.Act), 7, 13}, m.W.RawData(), m.B} {
		if err := binary.Write(&ref, binary.LittleEndian, v); err != nil {
			t.Fatalf("binary.Write: %v", err)
		}
	}
	want := ref.Bytes()
	got := m.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendBinary diverges from the documented layout")
	}
	if len(got) != m.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", m.EncodedSize(), len(got))
	}
	// Appending after a prefix must leave the prefix alone.
	pre := []byte{9, 9, 9}
	full := m.AppendBinary(pre)
	if !bytes.Equal(full[:3], pre[:3]) || !bytes.Equal(full[3:], want) {
		t.Fatal("AppendBinary clobbered the destination prefix")
	}
}

func TestUnmarshalBinaryReuseRoundTrip(t *testing.T) {
	m := randomModel(11, 5, 9)
	data := m.AppendBinary(nil)

	var fresh Model
	if err := fresh.UnmarshalBinaryReuse(data); err != nil {
		t.Fatalf("decode into zero model: %v", err)
	}
	if fresh.ParamDistance(m) != 0 || fresh.Act != m.Act {
		t.Fatal("decode into zero model lost parameters")
	}

	// Reuse: same shape decodes into the existing storage.
	scratch := NewModel(5, 9, Sigmoid)
	w0, b0 := &scratch.W.RawData()[0], &scratch.B[0]
	if err := scratch.UnmarshalBinaryReuse(data); err != nil {
		t.Fatalf("decode into scratch: %v", err)
	}
	if scratch.ParamDistance(m) != 0 || scratch.Act != Softmax {
		t.Fatal("decode into scratch lost parameters")
	}
	if w0 != &scratch.W.RawData()[0] || b0 != &scratch.B[0] {
		t.Fatal("matching-shape decode reallocated the parameter storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.UnmarshalBinaryReuse(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm UnmarshalBinaryReuse allocates %.1f/op, want 0", allocs)
	}

	// Shape change falls back to fresh storage.
	other := randomModel(2, 3, 4)
	if err := scratch.UnmarshalBinaryReuse(other.AppendBinary(nil)); err != nil {
		t.Fatalf("decode across shapes: %v", err)
	}
	if scratch.ParamDistance(other) != 0 {
		t.Fatal("cross-shape decode lost parameters")
	}
}

func TestUnmarshalBinaryReuseRejectsGarbage(t *testing.T) {
	good := randomModel(1, 2, 3).AppendBinary(nil)
	cases := map[string][]byte{
		"nonsense":   []byte("nonsense data here"),
		"empty":      {},
		"short":      good[:10],
		"bad magic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":  good[:len(good)-1],
		"trailing":   append(bytes.Clone(good), 0),
		"zero shape": {'E', 'F', 'M', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"huge shape": {'E', 'F', 'M', 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
		"huge×zero":  {'E', 'F', 'M', 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	}
	for name, data := range cases {
		var m Model
		if err := m.UnmarshalBinaryReuse(data); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
}

// TestAppendQuantizedKeepsPrefix: appending after a prefix writes the same
// payload as appending to nil, and leaves the prefix alone.
func TestAppendQuantizedKeepsPrefix(t *testing.T) {
	m := randomModel(5, 6, 8)
	for _, bits := range []QuantBits{Quant8, Quant16} {
		want, err := AppendQuantized(nil, m, bits)
		if err != nil {
			t.Fatalf("AppendQuantized(%d): %v", bits, err)
		}
		if len(want) != QuantizedSize(6, 8, bits) {
			t.Errorf("AppendQuantized(%d) wrote %d bytes, QuantizedSize says %d", bits, len(want), QuantizedSize(6, 8, bits))
		}
		pre := []byte{7}
		full, err := AppendQuantized(pre, m, bits)
		if err != nil {
			t.Fatalf("AppendQuantized with prefix: %v", err)
		}
		if full[0] != 7 || !bytes.Equal(full[1:], want) {
			t.Errorf("AppendQuantized(%d) clobbered the destination prefix", bits)
		}
	}
	if _, err := AppendQuantized(nil, m, 12); err == nil {
		t.Error("bits=12 must be rejected")
	}
}

func TestDequantizeIntoReuse(t *testing.T) {
	m := randomModel(9, 4, 6)
	data, err := AppendQuantized(nil, m, Quant16)
	if err != nil {
		t.Fatalf("AppendQuantized: %v", err)
	}
	var ref Model // a zero Model: fresh storage
	if err := ref.DequantizeInto(data); err != nil {
		t.Fatalf("DequantizeInto(zero Model): %v", err)
	}
	scratch := NewModel(4, 6, Softmax)
	w0 := &scratch.W.RawData()[0]
	if err := scratch.DequantizeInto(data); err != nil {
		t.Fatalf("DequantizeInto: %v", err)
	}
	if scratch.ParamDistance(&ref) != 0 {
		t.Fatal("DequantizeInto into scratch diverges from a fresh decode")
	}
	if w0 != &scratch.W.RawData()[0] {
		t.Fatal("matching-shape dequantize reallocated the storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.DequantizeInto(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DequantizeInto allocates %.1f/op, want 0", allocs)
	}
	if err := scratch.DequantizeInto(data[:len(data)-1]); err == nil {
		t.Error("truncated payload must be rejected")
	}
	if math.IsNaN(scratch.B[0]) {
		t.Error("failed decode left NaN in scratch")
	}
}
