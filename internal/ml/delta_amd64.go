package ml

import "eefei/internal/mat"

// AVX2 lanes under the delta block coder (delta_amd64.s), one call per tensor.
// They compute what codeBlock and decodeBlock compute, bit for bit, because
// both are integer arithmetic on bit patterns; the portable coder stays the
// only path without AVX2, the tail blocks' path, and the tests' oracle.

// useVec selects the vector coder, from package mat's CPUID probe; tests
// clear it to run the portable one.
var useVec = mat.HasAVX2()

// packMasks and unpackMasks are, per width n, the VPSHUFB controls that move
// the low n bytes of each 128-bit lane's two values to the lane's head and
// back (zeroing the bytes past n); lanes differ in nothing, so the 16-byte
// pattern is there twice. biases holds blockBias(n).
var packMasks, unpackMasks, biases = laneTables()

func laneTables() (pack, unpack [9][32]byte, bias [9]uint64) {
	for n := range bias {
		bias[n] = blockBias(uint(n))
		for k := range pack[n] {
			j := k & 15
			pack[n][k], unpack[n][k] = 0x80, 0x80 // 0x80: a zero byte
			if j < 2*n {
				pack[n][k] = byte(j/n*8 + j%n)
			}
			if j%8 < n {
				unpack[n][k] = byte(j/8*n + j%8)
			}
		}
	}
	return
}

//go:noescape
func codeBlocksAVX2(out *byte, cur, a, b, c *float64, blocks int, pack *[9][32]byte, bias *[9]uint64) int

//go:noescape
func decodeBlocksAVX2(dst *float64, in *byte, a, b, c *float64, blocks int, unpack *[9][32]byte, bias *[9]uint64)

// codeBlocksVec codes cur's full blocks into dst from offset o, dst being
// grown as appendDeltaTensor grows it, and returns how many values it coded
// and the offset after them (0 and o when the vector path is off).
func codeBlocksVec(dst []byte, o int, cur, a, b, c []float64) (int, int) {
	blocks := len(cur) / deltaBlock
	if !useVec || blocks == 0 {
		return 0, o
	}
	// A block is at most 1 + 16·8 bytes and stores at most that far past its
	// start, so this is every byte the assembly may touch.
	out := dst[o : o+blocks*(1+8*deltaBlock)]
	m := blocks * deltaBlock
	cur, a, b, c = cur[:m], a[:m], b[:m], c[:m]
	return m, o + codeBlocksAVX2(&out[0], &cur[0], &a[0], &b[0], &c[0], blocks, &packMasks, &biases)
}

// decodeBlocksVec decodes into dst the longest run of full blocks at the head
// of src that the assembly may read unchecked: every width at most 8, and the
// last 16-byte load (16 − 2n bytes past a block) inside src. It returns how
// many values it decoded and the rest of src; the portable loop decodes, and
// refuses, whatever follows.
func decodeBlocksVec(dst []float64, src []byte, a, b, c []float64) (int, []byte) {
	if !useVec {
		return 0, src
	}
	blocks, off := 0, 0
	for blocks < len(dst)/deltaBlock && off < len(src) {
		n := int(src[off])
		next := off + 1 + deltaBlock*n
		if n > 8 || next+16 > len(src) {
			break
		}
		blocks, off = blocks+1, next
	}
	if blocks == 0 {
		return 0, src
	}
	m := blocks * deltaBlock
	dst, a, b, c = dst[:m], a[:m], b[:m], c[:m]
	decodeBlocksAVX2(&dst[0], &src[0], &a[0], &b[0], &c[0], blocks, &unpackMasks, &biases)
	return m, src[off:]
}
