//go:build race

package vm

// RaceDetector reports whether the Go race detector is compiled in. A racy
// MiniJ program's races on the modeled heap are the program's, not the
// host's, and would drown out real bugs under the detector, so race builds
// serialize every simulated access (NopHooks, the recorder and the
// replayer); only the interleaving freedom of the modeled heap narrows.
const RaceDetector = true
