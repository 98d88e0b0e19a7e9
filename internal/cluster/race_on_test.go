//go:build race

package cluster

// raceEnabled lets the single-goroutine bulk tests shrink under the
// race detector, which slows them tenfold and has nothing to find.
const raceEnabled = true
