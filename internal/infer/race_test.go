//go:build race

package infer

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts are not reproducible.
const raceEnabled = true
