//go:build race

package model

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the allocation budgets are not meaningful under it.
const raceEnabled = true
