//go:build unix && !solaris && !(linux && (386 || amd64 || arm))

package fldgram

import "syscall"

const soReusePort = syscall.SO_REUSEPORT
