//go:build !linux

package fldgram

import "net"

// Segmentation offload is Linux's: elsewhere no socket takes it, and every
// run moves packet by packet.

func setSegment(*net.UDPConn, int) bool { return false }

func setGRO(*net.UDPConn) {}

func gsoRefused(error) bool { return false }

func groSize([]byte) int { return 0 }
