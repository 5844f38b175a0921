package light_test

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/fuzz"
	"repro/internal/light"
	"repro/internal/trace"
	"repro/internal/vm"
)

// forFuzzRecordings records lightfuzz-generated programs, across the
// recorder variants (O1 on and off, with and without the O2 mask) and with
// every fourth recording under schedule perturbation, and calls fn on each
// log: 320 programs, 64 under -short.
func forFuzzRecordings(t *testing.T, fn func(seed uint64, log *trace.Log)) {
	n := 320
	if testing.Short() {
		n = 64
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		gen := fuzz.Generate(seed, nil)
		prog, err := compiler.CompileSource(gen.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := light.RunConfig{
			Seed:              seed,
			Instrument:        analysis.Analyze(prog).InstrumentMask(seed%2 == 0),
			SleepUnit:         500,
			MaxStepsPerThread: 2_000_000,
		}
		if seed%4 == 3 {
			cfg.Perturb = &vm.PerturbOptions{Seed: seed, Intensity: 30}
		}
		fn(seed, light.Record(prog, light.Options{O1: seed%3 != 2}, cfg).Log)
	}
}

// TestPropagationMatchesDenseFuzz runs the propagation differential on
// lightfuzz recordings.
func TestPropagationMatchesDenseFuzz(t *testing.T) {
	forFuzzRecordings(t, func(seed uint64, log *trace.Log) {
		if err := light.DiffPropagation(log); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	})
}

// checkerMutants is the number of mutations DiffCheckers tries per log.
const checkerMutants = 21

// TestCheckerMatchesRules is the checker differential: on every golden log
// and on lightfuzz recordings, CheckSchedule and the rule reference must
// both accept the solved schedule and agree on every mutation of it.
func TestCheckerMatchesRules(t *testing.T) {
	var logs, mutants, rejected int
	diff := func(name string, seed int64, log *trace.Log) {
		r, err := light.DiffCheckers(log, seed, checkerMutants)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		logs++
		mutants += checkerMutants
		rejected += r
	}
	for i, g := range light.GoldenLogs(t) {
		diff(g.Name, int64(i), g.Log)
	}
	forFuzzRecordings(t, func(seed uint64, log *trace.Log) {
		diff("fuzz seed "+strconv.FormatUint(seed, 10), int64(seed), log)
	})
	t.Logf("%d logs, %d mutations, %d rejected by both checkers", logs, mutants, rejected)
}
