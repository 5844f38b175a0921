//go:build !race

package vm

// RaceDetector is false in normal builds; see race_enabled.go.
const RaceDetector = false
