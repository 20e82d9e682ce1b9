//go:build !unix

package main

import "io"

// transport is what the coordinator serves. Without a portable
// non-blocking write every frame takes the member's backlog.
func (g *guardedConn) transport() io.ReadWriteCloser { return g }
