//go:build race

package core

// raceEnabled: the race detector slows compute-bound tests about tenfold.
const raceEnabled = true
