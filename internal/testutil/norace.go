//go:build !race

// Package testutil holds what tests of several packages share.
package testutil

// RaceEnabled reports that the binary was built with the race detector.
// Under it sync.Pool drops a random share of what is Put to widen the
// races it can see, so allocation guards over pooled memory measure the
// detector, not the code, and skip themselves.
const RaceEnabled = false
