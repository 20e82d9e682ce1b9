//go:build unix

package main

import (
	"io"
	"os"
	"syscall"
)

// transport is what the coordinator serves: the guarded connection, with
// a non-blocking TryWrite when the socket exposes its descriptor. The raw
// connection is looked up once, at accept.
func (g *guardedConn) transport() io.ReadWriteCloser {
	sc, ok := g.Conn.(syscall.Conn)
	if !ok {
		return g
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return g
	}
	return &rawGuardedConn{guardedConn: g, raw: raw}
}

// rawGuardedConn is a guardedConn whose socket can be written without
// waiting (proto.TryWriter).
type rawGuardedConn struct {
	*guardedConn
	raw syscall.RawConn
}

// TryWrite makes one write(2) on the non-blocking socket and returns what
// it took: EAGAIN (the socket buffer is full) and EINTR are a short count
// with a nil error. It never waits, so it arms no write deadline.
func (c *rawGuardedConn) TryWrite(p []byte) (int, error) {
	var n int
	var werr error
	err := c.raw.Write(func(fd uintptr) bool {
		n, werr = syscall.Write(int(fd), p)
		return true
	})
	if n < 0 {
		n = 0
	}
	if err == nil && werr != syscall.EAGAIN && werr != syscall.EINTR {
		err = os.NewSyscallError("write", werr)
	}
	c.count(n, err)
	return n, err
}
