package main

import (
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..1) of xs by nearest rank on
// a sorted copy. Empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// quartiles returns Q1 and Q3 with the exclusive method Python's
// statistics.quantiles(values, n=4) uses, so the A/A table shows the
// spread the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

var processStart = time.Now()

// nowNs is the benchmark's monotonic clock: nanoseconds since start.
func nowNs() int64 { return int64(time.Since(processStart)) }

// spinIters is sized so one sentinel takes about 20 ms on the 2-core
// reference box; the count is fixed, so its duration measures the host.
const spinIters = 8_000_000

var (
	spinSink  uint64
	spinFSink float64
)

// spin is the host-noise sentinel: a fixed loop of independent xorshift
// and multiply-add chains, returning how long it took in ms. It is
// printed beside every pass and never enters a metric.
//
// The chains are independent on purpose. The box is a shared VM whose
// neighbours come and go in phases of seconds to minutes. A single
// dependent chain, one instruction in flight, does not notice them; the
// planner's code — like this loop, several instructions per cycle — runs
// up to 1.8 times slower beside them, and the sentinel then reads 1.4
// times its quiet value.
func spin() float64 {
	start := time.Now()
	a, b, c, d := uint64(88172645463325252), uint64(2), uint64(3), uint64(4)
	x, y := 1.0001, 0.9999
	for i := 0; i < spinIters; i++ {
		a ^= a << 13
		b ^= b >> 7
		c ^= c << 17
		d += a ^ b
		x = x*1.0000001 + 0.5
		y = y*0.9999999 + 0.25
		a ^= a >> 7
		b ^= b << 17
		c ^= c >> 13
	}
	spinSink = a + b + c + d
	spinFSink = x + y
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
