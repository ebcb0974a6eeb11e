//go:build race

package kdb

// raceEnabled reports a build with the race detector, whose
// instrumentation allocates and whose sync.Pool drops items at random.
const raceEnabled = true
