package ml

import (
	"unsafe"

	"eefei/internal/mat"
)

// AVX2 lanes under the delta block coder (delta_amd64.s), one call per run of
// blocks. They compute what codeBlock and decodeBlock compute, bit for bit,
// because both are integer arithmetic on bit patterns; the portable coder
// stays the only path without AVX2, the path of tail blocks and of the widths
// the lanes leave (1–7 bits when coding, 57–63 when decoding), and the tests'
// oracle.

// useVec selects the vector coder, from package mat's CPUID probe; tests
// clear it to run the portable one.
var useVec = mat.HasAVX2()

// A block's sixteen values sit in four groups of four, one YMM register each;
// 128-bit lane h of the block (of group h/2) holds values 2h and 2h+1 and
// reaches them with one 16-byte load or store at byte base[h] of the block's
// values. A pair of values at width n ≤ 56 starts s = 2hn mod 8 bits into
// that byte and spans at most 7 + 112 bits, so it fits; at n = 64 it is the
// 16 bytes exactly. Per width and group the tables hold the VPSHUFB control
// that moves the bytes of each value to or from its qword, the per-qword bit
// shifts, and for the coder the shift that brings the top s bits of the value
// before a lane into the lane's first byte, which the lane's store overwrites
// (64, an empty shift, where s = 0). The asm indexes them by n·512, so each
// entry is padded to 512 bytes.

// codeLane is the coder's table for one width.
type codeLane struct {
	shuf [4][32]byte  // each lane's second value to bytes o…o+7, the carry byte to 0
	shl  [4][4]uint64 // each value's bit offset in its first byte
	base [8]uint64    // each lane's byte offset in the block's values
	bias uint64       // blockBias(n)
	_    [23]uint64
}

// decodeLane is the decoder's table for one width.
type decodeLane struct {
	shuf [4][32]byte  // each lane's values to their qwords: bytes 0…7 and o…o+7
	shr  [4][4]uint64 // each value's bit offset in its first byte
	base [8]uint64
	mask [4]uint64 // blockMask(n), once per qword
	bias [4]uint64
	_    [16]uint64
}

var (
	_ [512]byte = [unsafe.Sizeof(codeLane{})]byte{}
	_ [512]byte = [unsafe.Sizeof(decodeLane{})]byte{}
)

var codeLanes, decodeLanes = laneTables()

func laneTables() (code *[65]codeLane, dec *[65]decodeLane) {
	code, dec = new([65]codeLane), new([65]decodeLane)
	for n := range code {
		if n > deltaWidest && n < 64 {
			continue // the coder never stores these and the decoder's scan leaves them
		}
		c, d := &code[n], &dec[n]
		c.bias = blockBias(uint(n))
		for q := range d.mask {
			d.mask[q], d.bias[q] = blockMask(uint(n)), c.bias
		}
		o := [8]int{} // each lane's byte offset of its second value
		for h := range 8 {
			g, q := h/2, 2*(h%2) // the lane's group, and its first qword there
			base, s := 2*h*n>>3, 2*h*n&7
			o[h] = (s + n) >> 3
			c.base[h], d.base[h] = uint64(base), uint64(base)
			c.shl[g][q], c.shl[g][q+1] = uint64(s), uint64((s+n)&7)
			d.shr[g][q], d.shr[g][q+1] = c.shl[g][q], c.shl[g][q+1]
			for k := range 16 {
				at := 8*q + k
				c.shuf[g][at] = 0x80 // a zero byte
				if k >= o[h] && k < o[h]+8 {
					c.shuf[g][at] = byte(8 + k - o[h])
				}
				d.shuf[g][at] = byte(k)
				if k >= 8 {
					d.shuf[g][at] = byte(o[h] + k - 8)
				}
			}
			if s > 0 {
				// The byte of lane h−1's second value, shifted, that lands
				// on this lane's first; T holds that value in qword 0.
				c.shuf[g][8*q] = byte(base - int(c.base[h-1]) - o[h-1])
			}
		}
	}
	return code, dec
}

//go:noescape
func codeBlocksAVX2(out *byte, cur, a, b, c *float64, blocks int, lanes *[65]codeLane) (coded, written int)

//go:noescape
func decodeBlocksAVX2(dst *float64, in *byte, a, b, c *float64, blocks int, lanes *[65]decodeLane)

// codeBlocksVec codes cur's full blocks from value i on into dst from offset
// o, dst being grown as appendDeltaTensor grows it, up to the first block of
// width 1–7 bits. It returns the value and the offset it stopped at (i and o
// when the vector path is off).
func codeBlocksVec(dst []byte, o, i int, cur, a, b, c []float64) (int, int) {
	blocks := (len(cur) - i) / deltaBlock
	if !useVec || blocks == 0 {
		return i, o
	}
	// A block is at most 1 + 16·8 bytes and stores at most that far past its
	// start, so this is every byte the assembly may touch.
	out := dst[o : o+blocks*(1+8*deltaBlock)]
	m := i + blocks*deltaBlock
	cur, a, b, c = cur[i:m], a[i:m], b[i:m], c[i:m]
	coded, written := codeBlocksAVX2(&out[0], &cur[0], &a[0], &b[0], &c[0], blocks, codeLanes)
	return i + coded*deltaBlock, o + written
}

// decodeBlocksVec decodes into dst the longest run of full blocks at the head
// of src that the assembly may read unchecked: every width at most 56 or 64,
// and the last 16-byte load (at byte 14n/8 of a block's values) inside src.
// It returns how many values it decoded and the rest of src; the portable
// loop decodes, and refuses, whatever follows.
func decodeBlocksVec(dst []float64, src []byte, a, b, c []float64) (int, []byte) {
	if !useVec {
		return 0, src
	}
	blocks, off := 0, 0
	for blocks < len(dst)/deltaBlock && off < len(src) {
		n := int(src[off])
		if n > deltaWidest && n != 64 || off+1+14*n>>3+16 > len(src) {
			break
		}
		blocks, off = blocks+1, off+1+2*n
	}
	if blocks == 0 {
		return 0, src
	}
	m := blocks * deltaBlock
	dst, a, b, c = dst[:m], a[:m], b[:m], c[:m]
	decodeBlocksAVX2(&dst[0], &src[0], &a[0], &b[0], &c[0], blocks, decodeLanes)
	return m, src[off:]
}
