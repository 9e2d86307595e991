//go:build race

package parser_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
