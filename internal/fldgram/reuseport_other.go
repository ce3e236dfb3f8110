//go:build !unix || solaris

package fldgram

import (
	"fmt"
	"runtime"
	"syscall"
)

// errNoReusePort fails Listen: without SO_REUSEPORT a Listener cannot give
// each peer a socket of its own.
var errNoReusePort = fmt.Errorf("socket option SO_REUSEPORT: not available on %s: %w", runtime.GOOS, ErrTransport)

func reusePort(string, string, syscall.RawConn) error { return errNoReusePort }
