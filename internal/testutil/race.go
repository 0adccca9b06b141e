//go:build race

package testutil

// RaceEnabled reports that the binary was built with the race detector.
const RaceEnabled = true
