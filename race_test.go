//go:build race

package sourcelda

// raceEnabled: the race detector slows compute-bound tests about tenfold.
const raceEnabled = true
