// Package faultinject is the repo's deterministic fault-injection
// harness: named failpoints compiled into the production paths of the
// engine and the wire protocol, plus a fault-injecting net.Conn wrapper
// for transport-level chaos (see conn.go).
//
// Failpoints are behind one atomic pointer: when nothing is armed,
// Fire() is a single atomic load and a branch — cheap enough to leave in
// every hot path (the benchgate series prove no measurable regression).
// Arming installs a Script mapping points to rules; every Fire counts
// hits per point (1-based, deterministic under a deterministic workload)
// and asks the rule what to do on that hit: nothing, stall for a
// duration, or panic with a value. Tests therefore express schedules
// like "the third planner call panics" or "every fourth delivery stalls
// 5ms" exactly, with no randomness unless the rule itself closes over a
// seeded source.
//
// The harness is test infrastructure living in the production binary on
// purpose: the chaos suite drives the real TCP stack, the real engine
// worker pool, and the real coordinator through fault schedules, and
// differentially fences the surviving clients' final plans against a
// fault-free run.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Point names one failpoint site. The constants below are the sites
// wired into the production packages; tests may also define private
// points for their own plumbing.
type Point string

// Failpoints wired into the production paths.
const (
	// EnginePlan fires inside every engine recomputation, immediately
	// before the planner call (sync and worker paths alike). A panic
	// here exercises the engine's panic isolation; a stall holds a shard
	// worker busy, so other groups' submissions wait in its run queue.
	EnginePlan Point = "engine.plan"
	// EngineSubmit fires at the top of every asynchronous submission,
	// before the group's snapshot is recorded and queued.
	EngineSubmit Point = "engine.submit"
	// CoordDeliver fires at the top of every coordinator delivery
	// (fan-out of one completed plan).
	CoordDeliver Point = "proto.coord.deliver"
	// ClientRead fires before every client frame read.
	ClientRead Point = "proto.client.read"
	// WALAppend fires in the durable store's writer before each log
	// frame is written. ShortWrite and Drop effects are interpreted by
	// the WAL itself (see FireEffect): a short write leaves a torn frame
	// on disk and wedges the log, a drop loses the frame silently.
	WALAppend Point = "durable.wal.append"
	// WALSync fires before each fsync of the durable log. A panic here
	// models a crash after writing but before the data is durable.
	WALSync Point = "durable.wal.sync"
	// WALWrite fires in the durable store's flush, immediately before the
	// framed batch hits the file. A Fail effect here simulates a transient
	// disk write error (EIO without touching the file), which exercises
	// the store's reopen-with-backoff recovery instead of the torn-tail
	// machinery that ShortWrite models.
	WALWrite Point = "durable.wal.write"
	// ReplShip fires in the replication shipper before each tail record is
	// sent to a follower. A Drop effect is interpreted as a stream cut:
	// the shipper closes that follower's connection mid-stream, forcing a
	// reconnect-and-reseed.
	ReplShip Point = "replica.ship"
	// ReplTail fires in the replication tailer before each received tail
	// record is applied. A Drop effect cuts the stream from the follower
	// side.
	ReplTail Point = "replica.tail"
	// ReplHello fires while the tailer builds its handshake hello. A Drop
	// effect makes it present a stale fencing epoch (0), modeling a
	// follower that rejoined with forgotten state.
	ReplHello Point = "replica.hello"
)

// Effect is what a rule tells a firing failpoint to do. The zero Effect
// is a no-op. Stall is applied before Panic when both are set.
// ShortWrite and Drop are advisory: Fire ignores them, and only call
// sites that use FireEffect (the durable WAL) act on them.
type Effect struct {
	// Stall sleeps the firing goroutine for the duration.
	Stall time.Duration
	// Panic, when non-nil, panics with this value after any stall.
	Panic any
	// ShortWrite, when positive, asks the WAL to write only the first
	// ShortWrite bytes of the frame and then wedge — the on-disk shape
	// of a crash mid-write (a torn tail).
	ShortWrite int
	// Drop asks the WAL to silently discard the frame. Replication call
	// sites reinterpret it per point: at ReplShip/ReplTail it cuts the
	// stream, at ReplHello it presents a stale epoch.
	Drop bool
	// Fail asks the call site to behave as if the operation returned an
	// I/O error without performing it — a transient disk fault at
	// WALWrite.
	Fail bool
}

// Rule decides the effect of each hit of one point. Hit numbers are
// 1-based and counted per point from the moment the script was armed.
type Rule func(hit uint64) Effect

// PanicOn returns a rule that panics with val on exactly the n-th hit.
func PanicOn(n uint64, val any) Rule {
	return func(hit uint64) Effect {
		if hit == n {
			return Effect{Panic: val}
		}
		return Effect{}
	}
}

// PanicEvery returns a rule that panics with val on every n-th hit.
func PanicEvery(n uint64, val any) Rule {
	return func(hit uint64) Effect {
		if n > 0 && hit%n == 0 {
			return Effect{Panic: val}
		}
		return Effect{}
	}
}

// StallEvery returns a rule that sleeps d on every n-th hit.
func StallEvery(n uint64, d time.Duration) Rule {
	return func(hit uint64) Effect {
		if n > 0 && hit%n == 0 {
			return Effect{Stall: d}
		}
		return Effect{}
	}
}

// StallFirst returns a rule that sleeps d on each of the first n hits —
// the shape that saturates a queue: the first computations wedge while
// submissions keep arriving.
func StallFirst(n uint64, d time.Duration) Rule {
	return func(hit uint64) Effect {
		if hit <= n {
			return Effect{Stall: d}
		}
		return Effect{}
	}
}

// Script maps points to rules. Points absent from the script are no-ops.
type Script map[Point]Rule

// script is the armed form: rules plus per-point hit counters.
type script struct {
	rules Script
	mu    sync.Mutex
	hits  map[Point]uint64
}

var active atomic.Pointer[script]

// Armed reports whether a script is installed.
func Armed() bool { return active.Load() != nil }

// Arm installs s, replacing any previous script and resetting all hit
// counters. Arming is global to the process; tests that arm must Disarm
// (t.Cleanup) and must not run in parallel with other arming tests.
func Arm(s Script) {
	active.Store(&script{rules: s, hits: make(map[Point]uint64, len(s))})
}

// Disarm removes the active script; every Fire returns to a single
// atomic load.
func Disarm() { active.Store(nil) }

// Hits returns how many times p fired since the current script was
// armed (0 when disarmed) — observability for schedules that need to
// assert a fault actually happened.
func Hits(p Point) uint64 {
	s := active.Load()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[p]
}

// Fire evaluates the failpoint p: a no-op unless a script is armed and
// has a rule for p, in which case the rule's effect for this hit is
// applied (stall, then panic). Production call sites invoke Fire
// unconditionally; the disarmed cost is one atomic load.
func Fire(p Point) {
	s := active.Load()
	if s == nil {
		return
	}
	rule, ok := s.rules[p]
	s.mu.Lock()
	s.hits[p]++
	hit := s.hits[p]
	s.mu.Unlock()
	if !ok {
		return
	}
	eff := rule(hit)
	if eff.Stall > 0 {
		time.Sleep(eff.Stall)
	}
	if eff.Panic != nil {
		panic(eff.Panic)
	}
}

// FireEffect evaluates the failpoint p like Fire — applying any stall
// and panic — and additionally returns the rule's effect so the call
// site can act on the parts only it can implement (ShortWrite, Drop).
// Returns the zero Effect when disarmed.
func FireEffect(p Point) Effect {
	s := active.Load()
	if s == nil {
		return Effect{}
	}
	rule, ok := s.rules[p]
	s.mu.Lock()
	s.hits[p]++
	hit := s.hits[p]
	s.mu.Unlock()
	if !ok {
		return Effect{}
	}
	eff := rule(hit)
	if eff.Stall > 0 {
		time.Sleep(eff.Stall)
	}
	if eff.Panic != nil {
		panic(eff.Panic)
	}
	return eff
}
