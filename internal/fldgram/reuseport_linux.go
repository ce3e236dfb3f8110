//go:build linux && (386 || amd64 || arm)

package fldgram

// soReusePort is SO_REUSEPORT from asm-generic/socket.h: the syscall
// package's tables for these architectures predate the option.
const soReusePort = 0xf
