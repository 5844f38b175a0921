package fuzz

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
)

// TestGenerateDeterminism: the decision trace must regenerate the identical
// program, and the empty trace must yield the minimal skeleton.
func TestGenerateDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := Generate(seed, nil)
		if _, err := compiler.CompileSource(p.Source); err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, p.Source)
		}
		again := Generate(seed, p.Trace)
		if again.Source != p.Source {
			t.Fatalf("seed %d: trace replay generated a different program:\n--- first ---\n%s\n--- replay ---\n%s",
				seed, p.Source, again.Source)
		}
		if !equalTrace(again.Trace, p.Trace) {
			t.Fatalf("seed %d: trace not canonical: %v vs %v", seed, p.Trace, again.Trace)
		}
	}
	// The zero-extended empty trace is the skeleton: one worker, hot-field
	// pattern, and it must stay under the shrinker's size target.
	skel := Generate(123, []uint32{})
	n, err := CountStatements(skel.Source)
	if err != nil {
		t.Fatalf("skeleton does not parse: %v\n%s", err, skel.Source)
	}
	if n > 25 {
		t.Fatalf("skeleton has %d statements, want <= 25:\n%s", n, skel.Source)
	}
	if skel.NWorkers != 1 {
		t.Fatalf("skeleton has %d workers, want 1", skel.NWorkers)
	}
}

// TestFuzzSmoke runs a bounded campaign — every oracle on every generated
// program — and requires zero divergences.
func TestFuzzSmoke(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	rep := RunCampaign(Config{Seeds: seeds, SchedSeeds: 2, Jobs: 4, Logf: t.Logf})
	if len(rep.Failures) != 0 {
		f := rep.Failures[0]
		t.Fatalf("campaign found %d divergences; first: genseed=%d schedseed=%d: %s\n%s",
			len(rep.Failures), f.GenSeed, f.SchedSeed, f.Err, f.Source)
	}
	t.Logf("smoke campaign: %s", rep.Summary())
}

// dropCrossThreadDeps is the injected recorder fault: silently lose every
// cross-thread dependence. An unsound log of exactly this shape is what the
// replay and ground-truth oracles exist to catch.
func dropCrossThreadDeps(d trace.Dep) bool {
	return d.W.Thread != trace.InitialThread && d.W.Thread != d.R.Thread
}

// TestShrinkInjectedFault is the acceptance self-test: with the fault
// injected, the campaign must detect a failure, and the shrinker must
// minimize it to a reproducer of at most 25 statements that still fails.
func TestShrinkInjectedFault(t *testing.T) {
	rep := RunCampaign(Config{Seeds: 8, SchedSeeds: 1, Jobs: 4, Fault: dropCrossThreadDeps})
	if len(rep.Failures) == 0 {
		t.Fatal("injected recorder fault was not detected by any oracle")
	}
	f := rep.Failures[0]
	t.Logf("fault detected: genseed=%d: %s", f.GenSeed, f.Err)

	fails := func(tr []uint32) bool {
		_, err := Reproduce(&Case{GenSeed: f.GenSeed, SchedSeed: f.SchedSeed, Trace: tr},
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
	t.Logf("minimized reproducer: %d statements, %d decisions\n%s", n, len(min.Trace), min.Source)
	if n > 25 {
		t.Fatalf("minimized reproducer has %d statements, want <= 25:\n%s", n, min.Source)
	}
	// Without the fault the minimized program must pass: the failure is the
	// recorder's, not the generator's.
	if _, err := Reproduce(&Case{GenSeed: f.GenSeed, SchedSeed: f.SchedSeed, Trace: min.Trace}, nil); err != nil {
		t.Fatalf("minimized case fails even without the injected fault: %v", err)
	}
}

// TestCorpusRoundTrip: corpus files survive format/parse and reproduce.
func TestCorpusRoundTrip(t *testing.T) {
	p := Generate(7, nil)
	c := &Case{GenSeed: 7, SchedSeed: 1, Trace: p.Trace, Err: "example\nmultiline", Source: p.Source}
	back, err := ParseCase(c.Format())
	if err != nil {
		t.Fatal(err)
	}
	if back.GenSeed != c.GenSeed || back.SchedSeed != c.SchedSeed || !equalTrace(back.Trace, c.Trace) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, c)
	}
	if back.Source != c.Source {
		t.Fatalf("source mismatch after round trip")
	}
	if !strings.Contains(back.Err, "example") {
		t.Fatalf("error lost: %q", back.Err)
	}
	dir := t.TempDir()
	path, err := WriteCase(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || loaded[0].GenSeed != 7 {
		t.Fatalf("corpus load: got %d cases from %s", len(loaded), path)
	}
	src, err := Reproduce(loaded[0], nil)
	if err != nil {
		t.Fatalf("corpus case does not reproduce cleanly: %v\n%s", err, src)
	}
}

func equalTrace(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
