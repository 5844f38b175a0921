package flake

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/light"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// testHunter builds a hunter directly for targeted sub-steps (record,
// classify) without running a whole campaign.
func testHunter(t *testing.T, name string, intensity int, opts light.Options) *hunter {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s not found", name)
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return &hunter{
		cfg: Config{
			Workload: w, Runs: 1, Intensity: intensity, Jobs: 1,
			ShrinkBudget: 32, Opts: opts, Logf: func(string, ...any) {},
		},
		prog: prog,
		mask: analysis.Analyze(prog).InstrumentMask(true),
	}
}

// failingRun sweeps perturbation seeds until a record run fails.
func failingRun(t *testing.T, h *hunter, maxSeeds uint64) *runOutcome {
	t.Helper()
	for seed := uint64(0); seed < maxSeeds; seed++ {
		out := h.record(seed, nil, true)
		if out.res.FirstBug() != nil {
			return out
		}
	}
	t.Fatalf("%s: no failing run in %d seeds", h.cfg.Workload.Name, maxSeeds)
	return nil
}

// TestShrinkDecisionsUnit drives the delta-debugger with a synthetic oracle:
// the failure needs exactly two of the ten decisions, and the shrinker must
// find precisely that pair.
func TestShrinkDecisionsUnit(t *testing.T) {
	var ds []Decision
	for i := 0; i < 10; i++ {
		ds = append(ds, Decision{Path: "0.1", Seq: uint64(i), Kind: vm.PerturbYield})
	}
	need := map[uint64]bool{3: true, 7: true}
	fails := func(sub []Decision) bool {
		have := 0
		for _, d := range sub {
			if need[d.Seq] {
				have++
			}
		}
		return have == len(need)
	}
	min, evals := ShrinkDecisions(ds, fails, 200)
	if len(min) != 2 || !need[min[0].Seq] || !need[min[1].Seq] {
		t.Fatalf("shrunk to %v, want seqs 3 and 7", min)
	}
	if evals == 0 || evals > 200 {
		t.Fatalf("evals = %d, want within (0, 200]", evals)
	}
}

// TestBuildTraceRoundTrip: a decision list must convert into a script that
// executes exactly those decisions.
func TestBuildTraceRoundTrip(t *testing.T) {
	ds := []Decision{
		{Path: "0.1", Seq: 2, Kind: vm.PerturbSpin},
		{Path: "0.2", Seq: 0, Kind: vm.PerturbSleep},
		{Path: "0.1", Seq: 5, Kind: vm.PerturbYield},
	}
	tr := BuildTrace(ds)
	if got := tr.Len(); got != len(ds) {
		t.Fatalf("trace.Len() = %d, want %d", got, len(ds))
	}
	for _, d := range ds {
		if got := tr.At(d.Path, d.Seq); got != d.Kind {
			t.Fatalf("At(%s,%d) = %s, want %s", d.Path, d.Seq, got, d.Kind)
		}
	}
	if got := tr.At("0.1", 3); got != vm.PerturbNone {
		t.Fatalf("unscripted point decided %s", got)
	}
}

// TestPerturbedRecordReplayDeterminism is the replay half of the pipeline's
// determinism contract: a perturbed *failing* record run must replay with
// the bug reproduced (Definition 3.3) and identical per-thread output, and
// the replay itself must be byte-identical across repetitions (same heap
// fingerprint) — the recording, not the noise, is the artifact of record.
func TestPerturbedRecordReplayDeterminism(t *testing.T) {
	h := testHunter(t, "flaky-counter", 40, light.Options{O1: true})
	out := failingRun(t, h, 20)
	cfg := light.RunConfig{Instrument: h.mask, MaxStepsPerThread: maxStepsPerThread}
	rep, err := light.Replay(h.prog, out.log, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Diverged {
		t.Fatalf("replay of perturbed run diverged: %s", rep.Reason)
	}
	if !light.Reproduced(out.log, rep.Result) {
		t.Fatal("perturbed failing run did not reproduce under replay")
	}
	for path, tr := range out.res.Threads {
		got := rep.Result.Threads[path]
		if got == nil {
			t.Fatalf("replay missing thread %s", path)
		}
		if len(got.Output) != len(tr.Output) {
			t.Fatalf("thread %s output differs: %v vs %v", path, got.Output, tr.Output)
		}
		for i := range tr.Output {
			if got.Output[i] != tr.Output[i] {
				t.Fatalf("thread %s output[%d]: %q vs %q", path, i, got.Output[i], tr.Output[i])
			}
		}
	}
	rep2, err := light.Replay(h.prog, out.log, cfg)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if got, want := vm.HeapFingerprint(rep2.Result.Globals), vm.HeapFingerprint(rep.Result.Globals); got != want {
		t.Fatalf("replay not deterministic:\nfirst:  %s\nsecond: %s", want, got)
	}
}

// TestSignatureStability: the same planted bug must map to one signature
// key across at least 20 independent failing runs, and the three planted
// bugs must be pairwise distinct.
func TestSignatureStability(t *testing.T) {
	keys := make(map[string]string) // workload -> signature key
	for _, name := range []string{"flaky-counter", "flaky-checkthenact", "flaky-lostsignal"} {
		h := testHunter(t, name, 40, light.Options{O1: true})
		var first string
		failures := 0
		for seed := uint64(0); seed < 400 && failures < 20; seed++ {
			out := h.record(seed, nil, false)
			sig, _, failed := h.classify(out, false)
			if !failed {
				continue
			}
			failures++
			if first == "" {
				first = sig.Key()
			} else if sig.Key() != first {
				t.Fatalf("%s: signature flapped after %d failures:\n%s\nvs\n%s",
					name, failures, first, sig.Key())
			}
		}
		if failures < 20 {
			t.Fatalf("%s: only %d failing runs in 400 seeds", name, failures)
		}
		keys[name] = first
	}
	seen := make(map[string]string)
	for name, key := range keys {
		if other, dup := seen[key]; dup {
			t.Fatalf("distinct bugs share a signature: %s and %s -> %s", name, other, key)
		}
		seen[key] = name
	}
}

// TestInjectedRecorderFaultSignature: a planted recorder fault (dropped
// cross-thread dependences) must surface as a replay-divergence signature —
// distinct from every program-level flake signature — and dedup within the
// divergence kind.
func TestInjectedRecorderFaultSignature(t *testing.T) {
	drop := func(d trace.Dep) bool { return !d.W.IsInitial() && d.W.Thread != d.R.Thread }
	h := testHunter(t, "flaky-counter", 40, light.Options{O1: true, FaultDropDep: drop})
	divKinds := make(map[string]int)
	found := 0
	for seed := uint64(0); seed < 40 && found < 5; seed++ {
		out := h.record(seed, nil, false)
		sig, _, failed := h.classify(out, true)
		if !failed {
			continue
		}
		if !sig.IsDivergence() {
			// A failing run whose truncated log happens to replay cleanly
			// still reproduces the assert; only divergences count here.
			continue
		}
		found++
		if sig.Kind != KindDivergence {
			t.Fatalf("seed %d: kind %q, want %q", seed, sig.Kind, KindDivergence)
		}
		if sig.Constraint != "schedule" {
			t.Fatalf("seed %d: constraint %q, want schedule", seed, sig.Constraint)
		}
		divKinds[sig.Key()]++
	}
	if found == 0 {
		t.Fatal("dropped cross-thread deps never produced a replay divergence in 40 seeds")
	}
	// Distinctness from the program-level bug: the clean hunter's signature.
	clean := testHunter(t, "flaky-counter", 40, light.Options{O1: true})
	out := failingRun(t, clean, 20)
	cleanSig, _, failed := clean.classify(out, false)
	if !failed {
		t.Fatal("classify lost the failure")
	}
	for key := range divKinds {
		if key == cleanSig.Key() {
			t.Fatalf("recorder-fault signature collides with the flake signature: %s", key)
		}
	}
}

// TestHuntFlakyFamily is the pipeline's ground-truth acceptance check: on
// each planted-bug workload, a fixed-seed campaign catches the bug, dedups
// all failures to a single signature, shrinks the noise to a minimal
// script, and verifies the bundled recording replays the failure. It runs
// at GOMAXPROCS 1: with real parallelism the planted races also fire
// without perturbation, and the shrinker then rightly reports an empty
// script, which is not the property under test.
func TestHuntFlakyFamily(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range workloads.Flaky() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), w.Name)
			wr, err := Hunt(Config{
				Workload:     w,
				Runs:         60,
				StartSeed:    1,
				Intensity:    40,
				Jobs:         4,
				ShrinkBudget: 40,
				ArtifactsDir: dir,
			})
			if err != nil {
				t.Fatalf("hunt: %v", err)
			}
			if wr.Failures == 0 {
				t.Fatal("campaign caught no failures")
			}
			if len(wr.Clusters) != 1 {
				t.Fatalf("failures did not dedup: %d clusters", len(wr.Clusters))
			}
			c := wr.Clusters[0]
			if c.Signature.Kind != "AssertionError" {
				t.Fatalf("signature kind %q, want AssertionError", c.Signature.Kind)
			}
			if c.Signature.Site < 0 || c.Signature.HotLoc < 0 {
				t.Fatalf("signature lost the hot location: site %d loc %d",
					c.Signature.Site, c.Signature.HotLoc)
			}
			if c.Count != wr.Failures {
				t.Fatalf("cluster count %d != failures %d", c.Count, wr.Failures)
			}
			if len(c.MinDecisions) == 0 || len(c.MinDecisions) > c.CapturedDecisions {
				t.Fatalf("shrink produced %d decisions from %d captured",
					len(c.MinDecisions), c.CapturedDecisions)
			}
			if !c.ReplayVerified {
				t.Fatal("minimal reproducer was not replay-verified")
			}
			for _, f := range []string{"prog.mj", "repro.lightlog", "repro.json", "trace.json", "flight.json"} {
				if _, err := os.Stat(filepath.Join(c.ReproDir, f)); err != nil {
					t.Fatalf("bundle missing %s: %v", f, err)
				}
			}
			// The bundled recording must be a failing run of this program
			// and replay through the standard path with the bug reproduced.
			lf, err := os.Open(filepath.Join(c.ReproDir, "repro.lightlog"))
			if err != nil {
				t.Fatal(err)
			}
			log, err := trace.Decode(lf)
			lf.Close()
			if err != nil {
				t.Fatalf("decode bundled log: %v", err)
			}
			if len(log.Bugs) == 0 {
				t.Fatal("bundled log records no failure")
			}
			prog, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := light.Replay(prog, log, light.RunConfig{
				Instrument: analysis.Analyze(prog).InstrumentMask(true),
			})
			if err != nil {
				t.Fatalf("replay bundled log: %v", err)
			}
			if rep.Diverged {
				t.Fatalf("bundled log diverged: %s", rep.Reason)
			}
			if !light.Reproduced(log, rep.Result) {
				t.Fatal("bundled log did not reproduce its failure")
			}
			// The report the CLI would emit must validate.
			r := NewReport([]*WorkloadReport{wr})
			if err := r.Validate(); err != nil {
				t.Fatalf("report validation: %v", err)
			}
			var buf []byte
			if buf, err = json.MarshalIndent(r, "", "  "); err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(buf, &back); err != nil {
				t.Fatalf("report did not round-trip: %v", err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("round-tripped report validation: %v", err)
			}
		})
	}
}

// TestReportValidateCatchesCorruption: Validate must reject the specific
// invariants the e2e test relies on.
func TestReportValidateCatchesCorruption(t *testing.T) {
	mk := func() *Report {
		return &Report{
			Schema: Schema,
			Workloads: []*WorkloadReport{{
				Workload: "w", Runs: 10, Failures: 3,
				Clusters: []*Cluster{
					{Rank: 1, Count: 2, Signature: Signature{Kind: "AssertionError"}},
					{Rank: 2, Count: 1, Signature: Signature{Kind: "TypeError"}},
				},
			}},
			TotalRuns: 10, TotalFailures: 3, TotalClusters: 2,
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := mk()
	bad.Schema = "nope"
	if bad.Validate() == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = mk()
	bad.Workloads[0].Clusters[0].Rank = 5
	if bad.Validate() == nil {
		t.Fatal("broken ranking accepted")
	}
	bad = mk()
	bad.Workloads[0].Clusters[0].Count, bad.Workloads[0].Clusters[1].Count = 1, 2
	if bad.Validate() == nil {
		t.Fatal("non-monotone frequency ranking accepted")
	}
	bad = mk()
	bad.Workloads[0].Failures = 7
	if bad.Validate() == nil {
		t.Fatal("failure accounting mismatch accepted")
	}
	bad = mk()
	bad.TotalClusters = 9
	if bad.Validate() == nil {
		t.Fatal("total mismatch accepted")
	}
}
