package light_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/fuzz"
	"repro/internal/light"
	"repro/internal/vm"
)

// TestPropagationMatchesDenseFuzz runs the propagation differential on
// recordings of lightfuzz-generated programs, across the recorder variants
// (O1 on and off, with and without the O2 mask) and with every fourth
// recording under schedule perturbation.
func TestPropagationMatchesDenseFuzz(t *testing.T) {
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
		rec := light.Record(prog, light.Options{O1: seed%3 != 2}, cfg)
		if err := light.DiffPropagation(rec.Log); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
