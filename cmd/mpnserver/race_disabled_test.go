//go:build !race

package main

// raceEnabled lets memory fences skip under the race detector, whose
// instrumentation deepens every stack.
const raceEnabled = false
