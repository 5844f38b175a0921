package workloads

import (
	"runtime"
	"testing"

	"repro/internal/vm"
)

// TestFlakyCompile: every flaky workload compiles and is reachable ByName.
func TestFlakyCompile(t *testing.T) {
	for _, w := range Flaky() {
		if _, err := w.Compile(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Suite != FlakySuite {
			t.Errorf("%s: suite %q, want %q", w.Name, w.Suite, FlakySuite)
		}
		if ByName(w.Name) == nil {
			t.Errorf("%s: not found by name", w.Name)
		}
	}
}

// TestFlakyExcludedFromAll: the planted-bug family must never leak into the
// 24-workload sweep (which asserts clean record/replay round trips).
func TestFlakyExcludedFromAll(t *testing.T) {
	names := make(map[string]bool)
	for _, w := range All() {
		names[w.Name] = true
	}
	for _, w := range Flaky() {
		if names[w.Name] {
			t.Errorf("flaky workload %s is part of All()", w.Name)
		}
	}
}

// TestFlakyIsIntermittent is the family's ground-truth property: each
// workload passes native unperturbed runs, yet fails at least once across a
// bounded perturbed seed sweep (the failure rates measured at intensity
// 20–60 are ~35–100%% per run, so 40 seeds make a miss astronomically
// unlikely). The unperturbed runs execute at GOMAXPROCS 1: with real
// parallelism the planted races also fire without perturbation now and
// then, so "passes unperturbed" holds only for a single-core schedule.
func TestFlakyIsIntermittent(t *testing.T) {
	for _, w := range Flaky() {
		prog, err := w.Compile()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		procs := runtime.GOMAXPROCS(1)
		for seed := uint64(0); seed < 3; seed++ {
			res := vm.Run(vm.Config{Prog: prog, Seed: seed})
			if bug := res.FirstBug(); bug != nil {
				t.Errorf("%s: unperturbed run (seed %d) failed: %v", w.Name, seed, bug)
			}
		}
		runtime.GOMAXPROCS(procs)
		failed := false
		for seed := uint64(0); seed < 40 && !failed; seed++ {
			res := vm.Run(vm.Config{
				Prog:    prog,
				Seed:    seed,
				Perturb: &vm.PerturbOptions{Seed: seed, Intensity: 40},
			})
			failed = res.FirstBug() != nil
		}
		if !failed {
			t.Errorf("%s: no perturbed run failed across 40 seeds — the planted bug is dead", w.Name)
		}
	}
}
