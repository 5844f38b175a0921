package light

import (
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Failure injection: corrupted or mismatched logs must be detected and
// reported, never silently replayed.

func recordCounter(t *testing.T) (*compiler.Program, *RecordOutcome) {
	t.Helper()
	prog := compile(t, `
class C { field n; }
var c = null;
fun bump(k) { for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; } }
fun main() {
  c = new C(); c.n = 0;
  var a = spawn bump(20);
  var b = spawn bump(20);
  join a; join b;
  print(c.n);
}
`)
	rec := Record(prog, Options{O1: true}, RunConfig{Seed: 5})
	return prog, rec
}

func TestReplayDetectsWrongProgram(t *testing.T) {
	_, rec := recordCounter(t)
	other := compile(t, `
var g = 0;
fun w() { g = g + 1; }
fun main() {
  var a = spawn w();
  join a;
  print(g);
}
`)
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(sched)
	res := replayWith(other, rep, rec.Log)
	_ = res
	failed, reason := rep.Failed()
	if !failed {
		t.Fatal("replaying a different program was not flagged")
	}
	if reason == "" {
		t.Fatal("empty failure reason")
	}
}

func TestReplayDetectsCounterCorruption(t *testing.T) {
	prog, rec := recordCounter(t)
	// Shift one dependence's reader counter: the schedule will wait for an
	// access that never occurs at that position.
	corrupted := *rec.Log
	corrupted.Deps = append([]trace.Dep(nil), rec.Log.Deps...)
	for i, d := range corrupted.Deps {
		if d.R.Thread != 0 && !d.W.IsInitial() && d.W.Thread != d.R.Thread {
			corrupted.Deps[i].R.Counter += 1000
			break
		}
	}
	sched, err := ComputeSchedule(&corrupted)
	if err != nil {
		return // unsatisfiable is an equally valid detection
	}
	rep := NewReplayer(sched)
	replayWith(prog, rep, &corrupted)
	failed, reason := rep.Failed()
	if !failed {
		t.Fatal("corrupted log replay not flagged")
	}
	if !strings.Contains(reason, "stalled") && !strings.Contains(reason, "divergence") {
		t.Errorf("unexpected reason: %s", reason)
	}
}

func TestReplayDetectsMissingThread(t *testing.T) {
	prog, rec := recordCounter(t)
	truncated := *rec.Log
	truncated.Threads = truncated.Threads[:1] // forget the workers
	sched, err := ComputeSchedule(&truncated)
	if err != nil {
		return
	}
	rep := NewReplayer(sched)
	replayWith(prog, rep, &truncated)
	if failed, _ := rep.Failed(); !failed {
		t.Fatal("missing-thread replay not flagged")
	}
}

// replayWith runs the program under an explicit replayer (test plumbing).
func replayWith(prog *compiler.Program, rep *Replayer, log *trace.Log) bool {
	runReplayVM(prog, rep, log)
	failed, _ := rep.Failed()
	return failed
}

func runReplayVM(prog *compiler.Program, rep *Replayer, log *trace.Log) {
	vm.Run(vm.Config{Prog: prog, Hooks: rep, Seed: log.Seed, ReplayMode: true})
}
