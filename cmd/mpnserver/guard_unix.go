//go:build unix

package main

import (
	"io"
	"os"
	"sync"
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

// rawWrites holds TryWrite's argument blocks, each with its write(2)
// callback bound once: one built per call would be allocated per frame.
var rawWrites = sync.Pool{New: func() any {
	w := new(rawWrite)
	w.write = func(fd uintptr) bool { w.n, w.err = syscall.Write(int(fd), w.p); return true }
	return w
}}

type rawWrite struct {
	p     []byte
	n     int
	err   error
	write func(fd uintptr) bool
}

// TryWrite makes one write(2) on the non-blocking socket and returns what
// it took: EAGAIN (the socket buffer is full) and EINTR are a short count
// with a nil error. It never waits, so it arms no write deadline, and
// allocates only on failure.
func (c *rawGuardedConn) TryWrite(p []byte) (int, error) {
	w := rawWrites.Get().(*rawWrite)
	w.p, w.n, w.err = p, 0, nil
	err := c.raw.Write(w.write)
	n, werr := max(w.n, 0), w.err
	rawWrites.Put(w)
	if err == nil && werr != syscall.EAGAIN && werr != syscall.EINTR {
		err = os.NewSyscallError("write", werr)
	}
	c.count(n, err)
	return n, err
}
