//go:build race

package registry

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts are not reproducible.
const raceEnabled = true
