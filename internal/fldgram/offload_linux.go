package fldgram

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"net"
	"syscall"
)

// UDP segmentation offload (udp(7)): with UDP_SEGMENT set on a socket, one
// send of equal-size packets laid back to back leaves as that many
// datagrams; with UDP_GRO set, one receive may return such a run, and a
// control message carries its packet size.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT
	udpGRO     = 104 // UDP_GRO
)

// setSegment sets the socket's UDP_SEGMENT size, 0 for off, and reports
// whether the kernel took it.
func setSegment(uc *net.UDPConn, size int) bool { return setUDPOption(uc, udpSegment, size) }

// setGRO asks the kernel to hand runs it received to one read, coalesced.
func setGRO(uc *net.UDPConn) { setUDPOption(uc, udpGRO, 1) }

func setUDPOption(uc *net.UDPConn, opt, val int) bool {
	rc, err := uc.SyscallConn()
	if err != nil {
		return false
	}
	cerr := rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), solUDP, opt, val) })
	return cerr == nil && err == nil
}

// gsoRefused reports a send the kernel refused for the socket's segment
// size: EINVAL (IPv4) or EMSGSIZE (IPv6) when a packet and its headers
// exceed the route's MTU, where a plain send would be IP-fragmented
// instead, and EIO when the device cannot checksum.
func gsoRefused(err error) bool {
	return errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EMSGSIZE) || errors.Is(err, syscall.EIO)
}

// groSize returns the packet size a UDP_GRO control message in oob
// declares, or 0 (one packet) when oob holds none or is malformed. It reads
// the cmsghdr fields by hand, allocation-free and at any alignment.
func groSize(oob []byte) int {
	const word = bits.UintSize / 8 // cmsg_len is a size_t; messages align to it
	const hdr = syscall.SizeofCmsghdr
	for len(oob) >= hdr {
		l := uint64(binary.NativeEndian.Uint32(oob))
		if word == 8 {
			l = binary.NativeEndian.Uint64(oob)
		}
		if l < hdr || l > uint64(len(oob)) {
			return 0
		}
		if binary.NativeEndian.Uint32(oob[word:]) == solUDP && binary.NativeEndian.Uint32(oob[word+4:]) == udpGRO && l >= hdr+4 {
			return max(0, int(int32(binary.NativeEndian.Uint32(oob[hdr:]))))
		}
		oob = oob[min((l+word-1)&^(word-1), uint64(len(oob))):]
	}
	return 0
}
