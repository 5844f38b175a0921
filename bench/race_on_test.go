//go:build race

package main

// raceDetector mirrors internal/fuzz's flag: native (uninstrumented) runs
// of racy MiniJ programs expose the modeled program's data races to the
// detector, and every iteration starts with one, so race builds skip the
// tests that run the benchmark loop.
const raceDetector = true
