//go:build race

package main

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation empties sync.Pool at random and so
// inflates AllocsPerRun counts.
const raceEnabled = true
