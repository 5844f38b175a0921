//go:build !race

package main

// raceDetector reports whether the Go race detector is compiled in; see
// race_on_test.go.
const raceDetector = false
