package vm

import (
	"sync"
	"testing"

	"repro/internal/compiler"
)

// perturbTestSrc has deterministic per-thread control flow (no shared value
// feeds a branch), so every run performs the identical access sequence per
// thread regardless of interleaving — the precondition for comparing whole
// decision sequences across runs. Each worker's unsynchronized accesses go
// to its own slot of a shared array, so the native run is free of data races
// and the package passes under the race detector.
const perturbTestSrc = `
var a = null;
var b = 0;
var lock = null;

fun work(id, n) {
  for (var i = 0; i < n; i = i + 1) {
    a[id] = a[id] + id;
    sync (lock) { b = b + 1; }
  }
}

fun main() {
  lock = newmap();
  a = newarr(3);
  a[1] = 0;
  a[2] = 0;
  var t1 = spawn work(1, 20);
  var t2 = spawn work(2, 20);
  join t1; join t2;
  print(b);
}
`

// decisionCapture collects every perturbation decision, keyed by thread path.
type decisionCapture struct {
	mu   sync.Mutex
	seqs map[string][]PerturbKind
}

func newDecisionCapture() *decisionCapture {
	return &decisionCapture{seqs: make(map[string][]PerturbKind)}
}

func (c *decisionCapture) hook(path string, seq uint64, k PerturbKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.seqs[path]
	if uint64(len(ds)) != seq {
		// Out-of-order delivery would mean the per-thread sequence numbers
		// are broken; record a sentinel the assertions will trip over.
		k = PerturbKind(0xff)
	}
	c.seqs[path] = append(ds, k)
}

func runPerturbed(t *testing.T, seed uint64, intensity int) *decisionCapture {
	t.Helper()
	prog, err := compiler.CompileSource(perturbTestSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cap := newDecisionCapture()
	res := Run(Config{
		Prog: prog,
		Perturb: &PerturbOptions{
			Seed: seed, Intensity: intensity, SleepNS: 1000,
			OnDecision: cap.hook,
		},
	})
	if bug := res.FirstBug(); bug != nil {
		t.Fatalf("deterministic workload failed: %v", bug)
	}
	return cap
}

// TestPerturbDecisionSequenceDeterminism: the same {program, seed} must draw
// the identical perturbation decision sequence for every thread across runs
// (the decisions are a pure function of seed, path, and point index).
func TestPerturbDecisionSequenceDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		a := runPerturbed(t, seed, 40)
		b := runPerturbed(t, seed, 40)
		if len(a.seqs) != len(b.seqs) {
			t.Fatalf("seed %d: thread sets differ: %d vs %d", seed, len(a.seqs), len(b.seqs))
		}
		for path, da := range a.seqs {
			db := b.seqs[path]
			if len(da) != len(db) {
				t.Fatalf("seed %d thread %s: %d decisions vs %d", seed, path, len(da), len(db))
			}
			for i := range da {
				if da[i] != db[i] {
					t.Fatalf("seed %d thread %s decision %d: %s vs %s", seed, path, i, da[i], db[i])
				}
			}
			// The captured sequence must also match the pure function.
			for i, k := range da {
				if want := PerturbDecision(seed, path, uint64(i), 40); k != want {
					t.Fatalf("seed %d thread %s decision %d: executed %s, PerturbDecision says %s",
						seed, path, i, k, want)
				}
			}
		}
	}
}

// TestPerturbSeedsDiffer: different seeds must yield different decision
// sequences (otherwise the campaign's N runs explore one interleaving bias).
func TestPerturbSeedsDiffer(t *testing.T) {
	a := runPerturbed(t, 1, 40)
	b := runPerturbed(t, 2, 40)
	same := true
	for path, da := range a.seqs {
		db := b.seqs[path]
		if len(da) != len(db) {
			same = false
			break
		}
		for i := range da {
			if da[i] != db[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew identical decision sequences on every thread")
	}
}

// TestPerturbIntensityZeroIsSilent: intensity 0 must decide PerturbNone at
// every point, and the run must behave like an unperturbed one.
func TestPerturbIntensityZeroIsSilent(t *testing.T) {
	cap := runPerturbed(t, 9, 0)
	for path, ds := range cap.seqs {
		for i, k := range ds {
			if k != PerturbNone {
				t.Fatalf("intensity 0: thread %s decision %d is %s", path, i, k)
			}
		}
	}
}

// TestPerturbTraceScripting: a scripted PerturbTrace must be executed
// verbatim — the scripted prefix decision-for-decision, PerturbNone beyond.
func TestPerturbTraceScripting(t *testing.T) {
	prog, err := compiler.CompileSource(perturbTestSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	script := &PerturbTrace{Decisions: map[string][]PerturbKind{
		"0.1": {PerturbNone, PerturbYield, PerturbNone, PerturbSpin},
		"0.2": {PerturbSleep},
	}}
	cap := newDecisionCapture()
	res := Run(Config{
		Prog: prog,
		Perturb: &PerturbOptions{
			Seed: 123, Intensity: 100, SleepNS: 1000, // must be ignored: Trace wins
			Trace:      script,
			OnDecision: cap.hook,
		},
	})
	if bug := res.FirstBug(); bug != nil {
		t.Fatalf("workload failed: %v", bug)
	}
	for path, ds := range cap.seqs {
		want := script.Decisions[path]
		for i, k := range ds {
			exp := PerturbNone
			if i < len(want) {
				exp = want[i]
			}
			if k != exp {
				t.Fatalf("thread %s decision %d: executed %s, script says %s", path, i, k, exp)
			}
		}
	}
	if got := script.Len(); got != 3 {
		t.Fatalf("script.Len() = %d, want 3 (non-none decisions)", got)
	}
}

// TestPerturbReplayModeIgnored: a replaying VM must never perturb even when
// Perturb is set (the enforced schedule replaces timing-based interleaving).
func TestPerturbReplayModeIgnored(t *testing.T) {
	prog, err := compiler.CompileSource(`fun main() { print("ok"); }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	called := false
	v := New(Config{
		Prog:       prog,
		ReplayMode: true,
		Perturb: &PerturbOptions{
			Seed: 1, Intensity: 100,
			OnDecision: func(string, uint64, PerturbKind) { called = true },
		},
	})
	if v.perturb != nil {
		t.Fatal("replay-mode VM kept a live perturbation config")
	}
	v.Run()
	if called {
		t.Fatal("replay run took a perturbation decision")
	}
}
