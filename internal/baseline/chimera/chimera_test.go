package chimera

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/vm"
)

func setup(t *testing.T, src string) (*compiler.Program, *analysis.Result, *Patch) {
	t.Helper()
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := analysis.Analyze(prog)
	return prog, res, BuildPatch(prog, res)
}

const racyNPE = `
class Cache { field obj; }
class Obj { field v; }
var cache = null;
fun invalidator() {
  sleep(50);
  cache.obj = null;
}
fun getter() {
  var o = cache.obj;
  if (o != null) {
    sleep(200);
    print(cache.obj.v);
  }
}
fun main() {
  cache = new Cache();
  var o = new Obj(); o.v = 1;
  cache.obj = o;
  var g = spawn getter();
  var i = spawn invalidator();
  join g; join i;
}
`

func TestPatchCoversRacyFunctions(t *testing.T) {
	prog, res, patch := setup(t, racyNPE)
	if len(res.Races) == 0 {
		t.Fatal("no races found to patch")
	}
	if patch.NumLocks == 0 {
		t.Fatal("no patch locks created")
	}
	getter := prog.FunByName["getter"]
	invalidator := prog.FunByName["invalidator"]
	if len(patch.LocksOf[getter]) == 0 || len(patch.LocksOf[invalidator]) == 0 {
		t.Errorf("racy functions not patched: getter=%v invalidator=%v",
			patch.LocksOf[getter], patch.LocksOf[invalidator])
	}
}

// TestChimeraHidesRarelyParallelBug is the H2 failure mode (Section 5.3):
// the patch serializes getter and invalidator, so the record run can never
// exhibit the buggy interleaving — where Light records and replays it.
func TestChimeraHidesRarelyParallelBug(t *testing.T) {
	prog, _, patch := setup(t, racyNPE)
	const tries = 30
	for seed := uint64(0); seed < tries; seed++ {
		log, res, _ := Record(prog, patch, seed, nil, 10_000)
		if len(log.Bugs) != 0 || len(res.Bugs) != 0 {
			t.Fatalf("seed %d: bug manifested under Chimera's patch (should be serialized away): %v",
				seed, res.Bugs)
		}
	}
	// Light, by contrast, catches it within the same seed range.
	var lightHit bool
	for seed := uint64(0); seed < tries; seed++ {
		rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: seed, SleepUnit: 10_000})
		if len(rec.Log.Bugs) > 0 {
			lightHit = true
			break
		}
	}
	if !lightHit {
		t.Error("Light never observed the bug either; the comparison is vacuous")
	}
}

func TestChimeraRoundTripRaceFree(t *testing.T) {
	// On a bug-free run, Chimera's lock-order replay must terminate without
	// stalling and reproduce a bug-free execution.
	prog, _, patch := setup(t, `
class C { field n; }
var c = null;
fun bump(k) {
  for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; }
}
fun main() {
  c = new C(); c.n = 0;
  var t1 = spawn bump(50);
  var t2 = spawn bump(50);
  join t1; join t2;
  print(c.n);
}
`)
	for seed := uint64(0); seed < 3; seed++ {
		log, recRes, _ := Record(prog, patch, seed, nil, 0)
		repRes, failed, reason := Replay(prog, patch, log, nil)
		if failed {
			t.Fatalf("seed %d: replay failed: %s", seed, reason)
		}
		if len(recRes.Bugs) != 0 || len(repRes.Bugs) != 0 {
			t.Fatalf("unexpected bugs: rec=%v rep=%v", recRes.Bugs, repRes.Bugs)
		}
		// With the patch, increments are fully serialized: exact count.
		if out := recRes.Output("0"); len(out) != 1 || out[0] != "100" {
			t.Errorf("seed %d: record output = %v, want [100] under serialization", seed, out)
		}
		if out := repRes.Output("0"); len(out) != 1 || out[0] != "100" {
			t.Errorf("seed %d: replay output = %v, want [100]", seed, out)
		}
	}
}

func TestChimeraLowSpace(t *testing.T) {
	prog, _, patch := setup(t, racyNPE)
	log, _, _ := Record(prog, patch, 1, nil, 0)
	// Chimera records only lock operations: far less than one long per
	// shared access.
	if log.SpaceLongs > 200 {
		t.Errorf("chimera space = %d longs, want small (lock ops only)", log.SpaceLongs)
	}
}

func TestChimeraSyscallsReplayed(t *testing.T) {
	prog, _, patch := setup(t, `
fun main() { print(time(), random(50)); }
`)
	log, recRes, _ := Record(prog, patch, 9, nil, 0)
	repRes, failed, reason := Replay(prog, patch, log, nil)
	if failed {
		t.Fatalf("replay failed: %s", reason)
	}
	a := recRes.Output("0")
	b := repRes.Output("0")
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("outputs differ: %v vs %v", a, b)
	}
	_ = vm.Null
}

// bumpProgram spawns two workers that increment a shared counter k1 and k2
// times, one patched call per increment. The variants differ only in
// constants, so they share access sites and the patch.
func bumpProgram(k1, k2 int) string {
	return fmt.Sprintf(`
class C { field n; }
var c = null;
fun inc() { c.n = c.n + 1; }
fun bump(k) { for (var i = 0; i < k; i = i + 1) { inc(); } }
fun main() {
  c = new C(); c.n = 0;
  var a = spawn bump(%d); var b = spawn bump(%d);
  join a; join b;
  print(c.n);
}
`, k1, k2)
}

// TestStallChimeraShortenedWorker replays a 2×bump(40) recording against a
// program whose second worker runs bump(30): the lock ops of its last ten
// increments can never be taken, and Replay reports the stall when it
// returns.
func TestStallChimeraShortenedWorker(t *testing.T) {
	rec, _, patch := setup(t, bumpProgram(40, 40))
	short, _, _ := setup(t, bumpProgram(40, 30))
	for seed := uint64(0); seed < 3; seed++ {
		log, _, _ := Record(rec, patch, seed, nil, 0)
		_, failed, reason := Replay(short, patch, log, nil)
		if !failed || !strings.Contains(reason, "stalled") {
			t.Errorf("seed %d: replay failed=%v %q, want a stall", seed, failed, reason)
		}
	}
}

// TestChimeraUnknownThreadFails: a thread the log does not name fails the
// replay as it starts, and then runs free through its patch locks instead of
// waiting for a turn that no op names.
func TestChimeraUnknownThreadFails(t *testing.T) {
	patch := &Patch{LocksOf: map[int][]int{7: {0}}, NumLocks: 1}
	rep := NewReplayer(&Log{Threads: []string{"0"}}, patch)
	ghost := &vm.Thread{ID: 9, Path: "0.9"}
	rep.ThreadStarted(ghost)
	if failed, reason := rep.Failed(); !failed || !strings.Contains(reason, "unknown thread 0.9") {
		t.Fatalf("Failed() = %v, %q, want the unknown thread 0.9", failed, reason)
	}
	rep.EnterFunc(ghost, 7)
	rep.ExitFunc(ghost, 7)
	rep.ThreadExited(ghost)
}

// TestStallChimeraIncompleteReplay: the only thread exits with a recorded
// acquire and release of its patch lock left untaken.
func TestStallChimeraIncompleteReplay(t *testing.T) {
	patch := &Patch{LocksOf: map[int][]int{7: {0}}, NumLocks: 1}
	acq, rel := lockOp{Thread: 0, Acquire: true}, lockOp{Thread: 0}
	rep := NewReplayer(&Log{Threads: []string{"0"}, Ops: []lockOp{acq, rel, acq, rel}}, patch)
	th := &vm.Thread{ID: 0, Path: "0"}
	rep.ThreadStarted(th)
	rep.EnterFunc(th, 7)
	rep.ExitFunc(th, 7)
	if failed, reason := rep.Failed(); failed {
		t.Fatalf("flagged while the thread is live: %s", reason)
	}
	rep.ThreadExited(th)
	if failed, reason := rep.Failed(); !failed || !strings.Contains(reason, "incomplete") {
		t.Fatalf("Failed() = %v, %q; want an incomplete replay", failed, reason)
	}
}
