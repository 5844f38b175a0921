package fuzz

import (
	"strings"
	"testing"
)

// TestPerturbedCampaignClean is the fourth oracle dimension's soundness
// half: with schedule perturbation on and no injected fault, every oracle
// contract (replay reproduction, ground-truth cross-check, checker-valid
// schedule) must hold for noise-biased interleavings exactly as for calm
// ones — perturbation delays, it never changes semantics.
func TestPerturbedCampaignClean(t *testing.T) {
	rep := RunCampaign(Config{Seeds: 15, SchedSeeds: 1, Jobs: 4, Perturb: 30})
	for _, f := range rep.Failures {
		t.Errorf("perturbed clean campaign failed: genseed=%d: %s", f.GenSeed, f.Err)
	}
	if rep.Runs == 0 {
		t.Fatal("campaign ran nothing")
	}
}

// TestPerturbedShrinkInjectedFault is the detection half plus the shrink
// bound: a perturbed campaign must still catch an injected recorder fault,
// and the delta-debugger must minimize the (perturbed) failing case to at
// most 25 statements.
func TestPerturbedShrinkInjectedFault(t *testing.T) {
	rep := RunCampaign(Config{Seeds: 8, SchedSeeds: 1, Jobs: 4, Perturb: 30, Fault: dropCrossThreadDeps})
	if len(rep.Failures) == 0 {
		t.Fatal("injected recorder fault escaped the perturbed campaign")
	}
	f := rep.Failures[0]
	if f.Perturb != 30 {
		t.Fatalf("failure case lost its perturbation intensity: %d", f.Perturb)
	}
	t.Logf("fault detected under perturbation: genseed=%d: %s", f.GenSeed, f.Err)

	fails := func(tr []uint32) bool {
		_, err := Reproduce(&Case{GenSeed: f.GenSeed, SchedSeed: f.SchedSeed, Perturb: f.Perturb, Trace: tr},
			dropCrossThreadDeps)
		return err != nil
	}
	min := Shrink(f.GenSeed, f.Trace, fails, 200)
	if !fails(min.Trace) {
		t.Fatalf("shrunk case no longer fails:\n%s", min.Source)
	}
	n, err := CountStatements(min.Source)
	if err != nil {
		t.Fatalf("shrunk program does not parse: %v", err)
	}
	t.Logf("minimized perturbed reproducer: %d statements\n%s", n, min.Source)
	if n > 25 {
		t.Fatalf("minimized reproducer has %d statements, want <= 25:\n%s", n, min.Source)
	}
}

// TestCasePerturbRoundTrip: the corpus format must carry the perturbation
// intensity (and omit the line entirely for calm cases, preserving the
// historic layout).
func TestCasePerturbRoundTrip(t *testing.T) {
	c := &Case{GenSeed: 3, SchedSeed: 1, Perturb: 40, Trace: []uint32{7, 9}, Err: "boom", Source: "fun main() {}\n"}
	back, err := ParseCase(c.Format())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if back.Perturb != 40 || back.GenSeed != 3 || back.SchedSeed != 1 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	calm := &Case{GenSeed: 3, SchedSeed: 1, Trace: []uint32{}, Source: "fun main() {}\n"}
	for _, line := range strings.Split(calm.Format(), "\n") {
		if strings.HasPrefix(line, "perturb") {
			t.Fatalf("calm case format grew a perturb line:\n%s", calm.Format())
		}
	}
}
