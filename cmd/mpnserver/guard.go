package main

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// connTotals is connection-level accounting across the whole server:
// byte totals, error totals, and how many connections were torn down by
// the idle deadline.
type connTotals struct {
	Accepted, ReadBytes, WriteBytes, ReadErrors, WriteErrors, IdleTimeouts uint64
}

// connStats is connTotals' live, lock-free form.
type connStats struct {
	accepted     atomic.Uint64
	readBytes    atomic.Uint64
	writeBytes   atomic.Uint64
	readErrors   atomic.Uint64
	writeErrors  atomic.Uint64
	idleTimeouts atomic.Uint64
}

func (c *connStats) totals() connTotals {
	return connTotals{c.accepted.Load(), c.readBytes.Load(), c.writeBytes.Load(),
		c.readErrors.Load(), c.writeErrors.Load(), c.idleTimeouts.Load()}
}

// guardedConn wraps an accepted connection with deadline discipline and
// accounting. Every Read arms an idle deadline — a peer that sends
// nothing (not even a heartbeat) within idleTimeout fails the read with a
// timeout instead of holding the connection open forever. Every Write
// arms a write deadline — a peer that stops draining cannot pin the
// member's drain goroutine indefinitely; the write fails, the coordinator
// tears the member down, and her backlog is released. Frames the socket
// takes at once go through TryWrite (see transport), which never waits,
// so the deadline is armed only on a write that had to wait, and cleared
// when that write returns. Both timeouts are optional (non-positive
// disables).
//
// Per-connection byte and error counts feed the disconnect log line;
// totals roll up into the server-wide connStats.
type guardedConn struct {
	net.Conn
	idleTimeout  time.Duration
	writeTimeout time.Duration
	stats        *connStats

	rBytes  atomic.Uint64
	wBytes  atomic.Uint64
	errs    atomic.Uint64
	timeout atomic.Bool // last read failed on the idle deadline
}

func newGuardedConn(conn net.Conn, idle, write time.Duration, stats *connStats) *guardedConn {
	stats.accepted.Add(1)
	return &guardedConn{Conn: conn, idleTimeout: idle, writeTimeout: write, stats: stats}
}

func (g *guardedConn) Read(p []byte) (int, error) {
	if g.idleTimeout > 0 {
		_ = g.Conn.SetReadDeadline(time.Now().Add(g.idleTimeout))
	}
	n, err := g.Conn.Read(p)
	g.rBytes.Add(uint64(n))
	g.stats.readBytes.Add(uint64(n))
	if err != nil && !isClosed(err) {
		g.errs.Add(1)
		g.stats.readErrors.Add(1)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			g.timeout.Store(true)
			g.stats.idleTimeouts.Add(1)
		}
	}
	return n, err
}

func (g *guardedConn) Write(p []byte) (int, error) {
	if g.writeTimeout > 0 {
		_ = g.Conn.SetWriteDeadline(time.Now().Add(g.writeTimeout))
		// TryWrite shares the socket's write deadline: one left to expire
		// would fail the next inline frame long after this write returned.
		defer g.Conn.SetWriteDeadline(time.Time{})
	}
	n, err := g.Conn.Write(p)
	g.count(n, err)
	return n, err
}

// count adds one write's bytes and error to the accounting.
func (g *guardedConn) count(n int, err error) {
	g.wBytes.Add(uint64(n))
	g.stats.writeBytes.Add(uint64(n))
	if err != nil && !isClosed(err) {
		g.errs.Add(1)
		g.stats.writeErrors.Add(1)
	}
}

// reason classifies why the connection ended, for the disconnect log.
func (g *guardedConn) reason(err error) string {
	switch {
	case g.timeout.Load():
		return "idle timeout"
	case err != nil:
		return "protocol error"
	default:
		return "peer closed"
	}
}

// isClosed reports the benign end-of-life errors that should not count
// as connection faults: EOF is how clients hang up, net.ErrClosed is how
// the server hangs up on them.
func isClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}
