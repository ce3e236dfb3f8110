//go:build !amd64

package ml

// Off amd64 the portable block coder is the only path.

var useVec = false

func codeBlocksVec(dst []byte, o, i int, cur, a, b, c []float64) (int, int) { return i, o }

func decodeBlocksVec(dst []float64, src []byte, a, b, c []float64) (int, []byte) { return 0, src }
