//go:build !race

package parser_test

// raceEnabled reports whether the race detector is active (it perturbs
// allocation behavior, so the alloc-regression tests skip).
const raceEnabled = false
