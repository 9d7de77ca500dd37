//go:build race

package main

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// its puts on purpose.
const raceEnabled = true
