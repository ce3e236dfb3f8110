package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Two peers that exchange a model every round each hold, bit for bit, models
// the next one is close to. This file codes a model losslessly against a
// prediction formed from those: per parameter, the integer difference of the
// IEEE-754 bit patterns of value and prediction, stored sixteen to a block in
// as many bits as the block's widest difference needs. It is integer
// arithmetic on bit patterns from end to end, so decoding reproduces every bit
// — −0, NaN payloads and ±Inf included — and late in training, when a round
// moves a weight by a few parts in 10⁵, a parameter costs about four and a
// half bytes instead of eight.
//
// Body: the 16-byte header of the float64 serialization under deltaMagic, then
// W and B, each as blocks of sixteen values (fewer in a tensor's last):
//
//	uint8    n ≤ 64, the bits the block's widest difference needs, sign included
//	         (0: the block is predicted exactly)
//	the values, each the difference plus 2^(n−1) in n bits, packed LSB-first:
//	value j at bit j·n of the bytes after the header, the last byte zero-filled
//
// so a full block is 1 + 2n bytes. The encoder stores widths 57–63 as 64: a
// value of up to 57 bits at any bit offset is then one 8-byte word in the
// portable loops and one shuffle and shift in the vector lanes
// (delta_amd64.s), and those widths cost a block at most 15 bytes. The decoder
// accepts every n ≤ 64.

// ErrDelta is returned (wrapped) for malformed delta bodies and for
// predictors that do not fit them.
var ErrDelta = errors.New("ml: delta coding error")

// deltaMagic guards the delta body format.
var deltaMagic = [4]byte{'E', 'F', 'D', 2}

const (
	deltaHeaderLen = 16
	deltaBlock     = 16
	// deltaWidest is the widest block width the encoder stores below 64: a
	// value of that many bits at any bit offset lies in one 8-byte word.
	deltaWidest = 56
	// deltaWindow is the stretch of buffer the block coder addresses at a
	// time. Values are written, and read, as 8-byte words at byte offsets
	// below 128 (a full block ends 129 bytes from its start), and a read of
	// a width above 57 takes a ninth byte: an offset masked to seven bits
	// plus nine bytes stays inside the window.
	deltaWindow = 127 + 9
)

// predict forms the prediction a + (b − c) — on bit patterns, as everything
// here: where a, b and c share sign and exponent, which models a round apart
// do, a step in bit patterns is the step in value counted in units in the last
// place. Both ends of a link must arrive at the same bits from the same inputs
// on any pair of architectures, and wrapping integer addition and subtraction
// do. Keep it to those: in float64 the sum rounds (and propagates NaN payloads
// as the hardware pleases), twice a minus c rounds differently again, and so
// does the fused multiply-add of package math — which Go also substitutes for
// x*y + z on arm64, ppc64 and s390x and not on amd64. A prediction that
// differs by one bit on one end silently desynchronises the pair, so
// scripts/verify.sh fails on a multiplication in this function and on any
// mention of the fused call in this file.
func predict(a, b, c uint64) uint64 { return a + (b - c) }

// predictors validates AppendDelta/ApplyDelta's variadic predictor list
// against a classes×features shape: three models a, b, c predict a + (b − c),
// one model a predicts a itself — which is a + (a − a).
func predictors(classes, features int, pred []*Model) (a, b, c *Model, ok bool) {
	if len(pred) != 1 && len(pred) != 3 {
		return nil, nil, nil, false
	}
	for _, p := range pred {
		if p == nil || p.W == nil || p.Classes() != classes || p.Features() != features || len(p.B) != classes {
			return nil, nil, nil, false
		}
	}
	return pred[0], pred[len(pred)/2], pred[len(pred)-1], true
}

// AppendDelta appends cur coded against the prediction formed from pred — one
// model a: a itself (first order); three models a, b, c: a + (b − c), e.g.
// g₀ + (g₀ − g₁) for a global model extrapolated from the two before it, or
// g + (l′ − g′) for a local model expected to move as it did last round. It
// reports false, returning dst as it was, when the predictors do not have
// cur's shape or the coded body would not be smaller than cur.EncodedSize();
// the caller then sends AppendBinary, which is always decodable.
func AppendDelta(dst []byte, cur *Model, pred ...*Model) ([]byte, bool) {
	a, b, c, ok := predictors(cur.Classes(), cur.Features(), pred)
	if !ok || len(cur.B) != cur.Classes() {
		return dst, false
	}
	out := appendDeltaBody(dst, cur, a, b, c)
	if len(out)-len(dst) >= cur.EncodedSize() {
		return dst, false
	}
	return out, true
}

// appendDeltaBody appends cur's delta body against a + (b − c), however long
// it comes out; the predictors have cur's shape.
func appendDeltaBody(dst []byte, cur, a, b, c *Model) []byte {
	// Worst case: every block at n = 64, one byte longer than its values; the
	// block coder writes through a window.
	n := cur.ParamCount()
	out := slices.Grow(dst, deltaHeaderLen+n*8+n/deltaBlock+2+deltaWindow)
	out = append(out, deltaMagic[:]...)
	var h [12]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(cur.Act))
	binary.LittleEndian.PutUint32(h[4:8], uint32(cur.Classes()))
	binary.LittleEndian.PutUint32(h[8:12], uint32(cur.Features()))
	out = append(out, h[:]...)
	out = appendDeltaTensor(out, cur.W.RawData(), a.W.RawData(), b.W.RawData(), c.W.RawData())
	return appendDeltaTensor(out, cur.B, a.B, b.B, c.B)
}

// appendDeltaTensor codes one tensor: the full blocks in vector lanes where
// the CPU has them, what is left block by block. The caller has grown dst for
// the worst case plus deltaWindow.
func appendDeltaTensor(dst []byte, cur, a, b, c []float64) []byte {
	o := len(dst)
	dst = dst[:cap(dst)]
	i := 0
	for i+deltaBlock <= len(cur) {
		// The lanes code what they can from i on; the block they stop at (a
		// width of 1–7 bits), or every block without them, is coded here.
		i, o = codeBlocksVec(dst, o, i, cur, a, b, c)
		if i+deltaBlock <= len(cur) {
			o += codeBlock((*[deltaWindow]byte)(dst[o:]), deltaBlock, (*[deltaBlock]float64)(cur[i:]),
				(*[deltaBlock]float64)(a[i:]), (*[deltaBlock]float64)(b[i:]), (*[deltaBlock]float64)(c[i:]))
			i += deltaBlock
		}
	}
	if i < len(cur) {
		// The last, shorter block: padded (zero differences) to be coded, cut
		// to length to be stored.
		var pad [4][deltaBlock]float64
		copy(pad[0][:], cur[i:])
		copy(pad[1][:], a[i:])
		copy(pad[2][:], b[i:])
		copy(pad[3][:], c[i:])
		o += codeBlock((*[deltaWindow]byte)(dst[o:]), len(cur)-i, &pad[0], &pad[1], &pad[2], &pad[3])
	}
	return dst[:o]
}

// codeBlock writes the block of the first m ≤ deltaBlock values at the head of
// out and returns its length. (A function of its own, so that its handful of
// variables live in registers.)
func codeBlock(out *[deltaWindow]byte, m int, cur, a, b, c *[deltaBlock]float64) int {
	vc, va, vb, vcc := cur[:], a[:], b[:], c[:] // slices: one nil check each, not one per element
	var d [deltaBlock]uint64
	// Every difference's zigzag fold, or-ed: 2x for x ≥ 0 and −2x − 1 for
	// x < 0, so its bit length is the bits x needs, sign included, and the
	// fold is 0 only when every x is. (x ^ x>>63 alone maps −1 to 0 too: a
	// block of 0s and −1s then claimed n = 0 and decoded one ULP high.)
	var fold uint64
	for j := range d {
		x := math.Float64bits(vc[j]) - predict(math.Float64bits(va[j]), math.Float64bits(vb[j]), math.Float64bits(vcc[j]))
		d[j] = x
		fold |= x<<1 ^ uint64(int64(x)>>63)
	}
	n := uint(bits.Len64(fold))
	if n > deltaWidest {
		n = 64
	}
	out[0] = byte(n)
	bias := blockBias(n)
	// acc holds the bits not yet in whole bytes, used of them; after each
	// value it is stored as one little-endian word at out[p:] and the whole
	// bytes are stepped past. A biased value is below 2^n, and used + n ≤ 63
	// for n ≤ 56; at n = 64 used stays 0 and the shift by 64 empties acc.
	// The word is spelled out byte by byte on the array — the compiler fuses
	// it into one move — and the mask changes nothing (p ≤ 121) but shows it
	// that the word is in bounds.
	var acc uint64
	p, used := uint(1), uint(0)
	for _, x := range d[:m] {
		acc |= (x + bias) << used
		used += n
		k := p & 127
		out[k], out[k+1], out[k+2], out[k+3] = byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24)
		out[k+4], out[k+5], out[k+6], out[k+7] = byte(acc>>32), byte(acc>>40), byte(acc>>48), byte(acc>>56)
		p += used >> 3
		acc >>= used &^ 7
		used &= 7
	}
	return int(p + (used+7)>>3)
}

// blockMask covers the n bits a block stores per value; blockBias is its top
// bit — half the range, which stored differences are offset by so that the
// decoder undoes the sign with one subtraction.
func blockMask(n uint) uint64 { return ^uint64(0) >> (64 - n) }
func blockBias(n uint) uint64 { return blockMask(n) ^ blockMask(n)>>1 }

// blockLen is the length of a block of m n-bit values, header included.
func blockLen(m int, n uint) int { return 1 + (m*int(n)+7)>>3 }

// ApplyDelta decodes a body written by AppendDelta into dst, given the same
// predictors the encoder had. dst's parameter storage is reused when it has
// the predictors' shape, and dst may itself be one of the predictors —
// decoding is element by element, so the model a link no longer needs can be
// overwritten by its successor. On error dst's parameters are unspecified.
// Bodies that are short, carry trailing bytes, name another shape or a value
// width above 64 bits are refused; nothing is read past data.
func ApplyDelta(dst *Model, data []byte, pred ...*Model) error {
	if len(data) < deltaHeaderLen {
		return fmt.Errorf("delta body of %d bytes: %w", len(data), ErrDelta)
	}
	if [4]byte(data[:4]) != deltaMagic {
		return fmt.Errorf("bad delta magic %x: %w", data[:4], ErrDelta)
	}
	act := Activation(binary.LittleEndian.Uint32(data[4:8]))
	classes := int(binary.LittleEndian.Uint32(data[8:12]))
	features := int(binary.LittleEndian.Uint32(data[12:16]))
	// The predictors bound the shape, so a corrupt header cannot make this
	// allocate more than a model the link already carried.
	a, b, c, ok := predictors(classes, features, pred)
	if !ok {
		return fmt.Errorf("%d predictors do not form a %dx%d model: %w", len(pred), classes, features, ErrDelta)
	}
	if dst.W == nil || dst.W.Rows() != classes || dst.W.Cols() != features || len(dst.B) != classes {
		fresh := NewModel(classes, features, act)
		dst.W, dst.B = fresh.W, fresh.B
	}
	dst.Act = act
	rest, err := applyDeltaTensor(dst.W.RawData(), data[deltaHeaderLen:], a.W.RawData(), b.W.RawData(), c.W.RawData())
	if err == nil {
		rest, err = applyDeltaTensor(dst.B, rest, a.B, b.B, c.B)
	}
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes: %w", len(rest), ErrDelta)
	}
	return nil
}

// applyDeltaTensor decodes one tensor from the head of src and returns what
// follows it, the mirror of appendDeltaTensor: the leading blocks that
// decodeBlocksVec's Go scan finds well-formed in lanes, every other block —
// and every refusal — here. dst may be a, b or c: each value is read before
// it is written.
func applyDeltaTensor(dst []float64, src []byte, a, b, c []float64) ([]byte, error) {
	var tail [deltaWindow]byte
	i, src := decodeBlocksVec(dst, src, a, b, c)
	for ; i < len(dst); i += deltaBlock {
		if len(src) == 0 {
			return nil, fmt.Errorf("body ends at parameter %d of %d: %w", i, len(dst), ErrDelta)
		}
		m, n := min(deltaBlock, len(dst)-i), uint(src[0])
		if n > 64 || len(src) < blockLen(m, n) {
			return nil, fmt.Errorf("block of %d %d-bit values at parameter %d in %d bytes: %w", m, n, i, len(src), ErrDelta)
		}
		in := &tail
		if len(src) >= deltaWindow {
			in = (*[deltaWindow]byte)(src)
		} else {
			// The last blocks of a body: give the word reads their slack.
			copy(tail[:], src)
		}
		src = src[blockLen(m, n):]
		if m == deltaBlock {
			decodeBlock((*[deltaBlock]float64)(dst[i:]), in, n, (*[deltaBlock]float64)(a[i:]),
				(*[deltaBlock]float64)(b[i:]), (*[deltaBlock]float64)(c[i:]))
			continue
		}
		var pad [4][deltaBlock]float64
		copy(pad[1][:], a[i:])
		copy(pad[2][:], b[i:])
		copy(pad[3][:], c[i:])
		decodeBlock(&pad[0], in, n, &pad[1], &pad[2], &pad[3])
		copy(dst[i:], pad[0][:m])
	}
	return src, nil
}

// decodeBlock is codeBlock's inverse for a block of n-bit values at in[1:].
// A value is read from the word at its first byte, shifted by its bit offset
// in that byte; only a width of 58–63 bits, which the encoder never writes,
// reaches into a ninth byte (at offset 0 the shift by 64 drops it).
func decodeBlock(dst *[deltaBlock]float64, in *[deltaWindow]byte, n uint, a, b, c *[deltaBlock]float64) {
	vd, va, vb, vc := dst[:], a[:], b[:], c[:] // as in codeBlock
	mask, bias := blockMask(n), blockBias(n)
	p := uint(8) // in bits, past the header byte
	for j := range vd {
		k, s := p>>3&127, p&7
		x := uint64(in[k]) | uint64(in[k+1])<<8 | uint64(in[k+2])<<16 | uint64(in[k+3])<<24 |
			uint64(in[k+4])<<32 | uint64(in[k+5])<<40 | uint64(in[k+6])<<48 | uint64(in[k+7])<<56
		x = x>>s | uint64(in[k+8])<<(64-s)
		vd[j] = math.Float64frombits(predict(math.Float64bits(va[j]), math.Float64bits(vb[j]), math.Float64bits(vc[j])) + (x&mask - bias))
		p += n
	}
}
