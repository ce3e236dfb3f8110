//go:build unix && !solaris

package fldgram

import "syscall"

// errNoReusePort is nil: the system has SO_REUSEPORT.
var errNoReusePort error

// reusePort sets SO_REUSEPORT on a socket before it binds, so a Listener's
// peer sockets can share its address.
func reusePort(_, _ string, rc syscall.RawConn) error {
	var err error
	if cerr := rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); cerr != nil {
		return cerr
	}
	return err
}
