//go:build !race

package sourcelda

const raceEnabled = false
