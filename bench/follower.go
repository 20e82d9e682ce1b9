package main

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpn/internal/durable"
	"mpn/internal/replica"
)

// follower is durable_ship's standby: a replica.Tailer with a counting
// dialer and a counting OnRecord and no engine behind it, so the primary
// ships its WAL while only two processes share the box.
type follower struct {
	addr  string
	tail  *replica.Tailer
	bytes atomic.Int64 // stream bytes read from the primary

	mu       sync.Mutex
	recordAt []int64 // arrival (nowNs) of each group upsert, in stream order
	notifyAt []int64 // when each op was notified, in op order
}

type shipConn struct {
	net.Conn
	n *atomic.Int64
}

func (c shipConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// start launches the tailer and waits until its stream is live, so the
// whole fleet registers with the follower already attached.
func (fo *follower) start() error {
	fo.tail = replica.StartTailer(replica.TailerConfig{
		PrimaryAddr: fo.addr,
		Epoch:       func() uint64 { return 0 },
		OnRecord: func(rec durable.Record) error {
			if rec.Type == durable.RecGroup {
				fo.mu.Lock()
				fo.recordAt = append(fo.recordAt, nowNs())
				fo.mu.Unlock()
			}
			return nil
		},
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return shipConn{Conn: conn, n: &fo.bytes}, nil
		},
		RetryBackoff: 5 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for !fo.tail.Stats().Connected {
		if time.Now().After(deadline) {
			fo.tail.Stop()
			return errors.New("follower did not connect to the primary's replication stream")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (fo *follower) stop() { fo.tail.Stop() }

// notified records when an op's notification reached its last member.
func (fo *follower) notified(t int64) {
	fo.mu.Lock()
	fo.notifyAt = append(fo.notifyAt, t)
	fo.mu.Unlock()
}

// settle waits (bounded) for the stream to deliver want group upserts
// and returns how many never arrived.
func (fo *follower) settle(want int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		fo.mu.Lock()
		got := len(fo.recordAt)
		fo.mu.Unlock()
		if got >= want || time.Now().After(deadline) {
			if got > want {
				got = want
			}
			return want - got
		}
		time.Sleep(time.Millisecond)
	}
}

// lagMs pairs the k-th op with the k-th upsert after the skip
// registration records and returns notification → OnRecord delays; an
// upsert that beat its notification counts as zero lag.
func (fo *follower) lagMs(skip int) []float64 {
	fo.mu.Lock()
	defer fo.mu.Unlock()
	var out []float64
	for k, t := range fo.notifyAt {
		if skip+k >= len(fo.recordAt) {
			break
		}
		d := float64(fo.recordAt[skip+k]-t) / 1e6
		if d < 0 {
			d = 0
		}
		out = append(out, d)
	}
	return out
}
