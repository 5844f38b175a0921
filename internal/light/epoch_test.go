package light

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

// contSrc is a two-thread contended counter for the replay-validity check.
// main reads the counter back after the joins: replay reproduces the values
// reads observe (Theorem 1), so a final write that no read observes may
// legitimately land in another order, and the heap fingerprint would then
// differ when both workers' last runs overlapped.
const contSrc = `
class Counter { field n; }
var c = null;

fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    c.n = c.n + 1;
  }
}

fun main() {
  c = new Counter();
  c.n = 0;
  var t1 = spawn bump(20);
  var t2 = spawn bump(20);
  join t1; join t2;
  print(c.n);
}
`

// TestRecordEpochRunReplays checks the artifacts an always-on session keeps
// for each run (internal/epoch records them with Record and takes the heap
// fingerprint at the run boundary): the log replays faithfully and the
// fingerprint is reproduced by the enforced re-execution.
func TestRecordEpochRunReplays(t *testing.T) {
	prog, err := compiler.CompileSource(contSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := Record(prog, Options{O1: true}, RunConfig{Seed: uint64(i)})
		fp := vm.HeapFingerprint(rec.Result.Globals)
		out, err := Replay(prog, rec.Log, RunConfig{})
		if err != nil {
			t.Fatalf("run %d: replay: %v", i, err)
		}
		if out.Diverged {
			t.Fatalf("run %d: diverged: %s", i, out.Reason)
		}
		if got := vm.HeapFingerprint(out.Result.Globals); got != fp {
			t.Fatalf("run %d: replay fingerprint %q, want the recorded %q", i, got, fp)
		}
		if !Reproduced(rec.Log, out.Result) {
			t.Fatalf("run %d: bug correlation failed", i)
		}
	}
}
