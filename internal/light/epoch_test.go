package light

import (
	"bytes"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// seqSrc is single-threaded, so its recorded log cannot vary with
// scheduling: any difference between two records is recorder residue.
const seqSrc = `
class Box { field v; }
var b = null;

fun main() {
  b = new Box();
  b.v = 0;
  for (var i = 0; i < 20; i = i + 1) {
    b.v = b.v + i;
  }
  print("v:", b.v);
}
`

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

func encodeLog(t *testing.T, l *trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecorderResetNoResidue records a deterministic program on a fresh
// recorder and then three more times on one reused recorder: every log
// must be byte-identical, proving Reset leaves no cross-run state
// (location numbering, merged buffers, or arena contents).
func TestRecorderResetNoResidue(t *testing.T) {
	prog, err := compiler.CompileSource(seqSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Seed: 3}
	fresh := Record(prog, Options{O1: true}, cfg)
	want := encodeLog(t, fresh.Log)
	wantFP := vm.HeapFingerprint(fresh.Result.Globals)

	rec := NewRecorder(Options{O1: true})
	for i := 0; i < 3; i++ {
		run := RecordEpochRun(rec, prog, cfg)
		if got := encodeLog(t, run.Outcome.Log); !bytes.Equal(got, want) {
			t.Fatalf("reuse %d: log differs from fresh-recorder log", i)
		}
		if run.Fingerprint != wantFP {
			t.Fatalf("reuse %d: fingerprint %q, want %q", i, run.Fingerprint, wantFP)
		}
	}
}

// TestRecordEpochRunReplays checks the epoch-cut artifacts of a contended
// run: the cut log replays faithfully and the snapshotted fingerprint is
// reproduced by the enforced re-execution.
func TestRecordEpochRunReplays(t *testing.T) {
	prog, err := compiler.CompileSource(contSrc)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(Options{O1: true})
	for i := 0; i < 3; i++ {
		run := RecordEpochRun(rec, prog, RunConfig{Seed: uint64(i)})
		out, err := Replay(prog, run.Outcome.Log, RunConfig{})
		if err != nil {
			t.Fatalf("run %d: replay: %v", i, err)
		}
		if out.Diverged {
			t.Fatalf("run %d: diverged: %s", i, out.Reason)
		}
		if got := vm.HeapFingerprint(out.Result.Globals); got != run.Fingerprint {
			t.Fatalf("run %d: replay fingerprint %q, want the cut snapshot %q", i, got, run.Fingerprint)
		}
		if !Reproduced(run.Outcome.Log, out.Result) {
			t.Fatalf("run %d: bug correlation failed", i)
		}
	}
}
