package sim

import "repro/internal/verilog/ast"

// Internals exposed to the external sim_test package, whose tests need the
// eval suite (eval imports sim through testbench, so package sim's own tests
// cannot import it).

// RaceEnabled reports whether the race detector is active.
const RaceEnabled = raceEnabled

// ResetKeyMemo empties CanonicalKey's memo, pre-sized to its cap so that
// inserting into it does not grow the map.
func ResetKeyMemo() {
	keyMemoMu.Lock()
	keyMemo = make(map[*ast.Source]string, keyMemoCap)
	keyMemoMu.Unlock()
}
