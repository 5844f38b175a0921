package light

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/vm"
)

// mapStressSrc races four workers over one map and one array through every
// map operation (put, get, contains, len, remove, keys) and plain element
// read-modify-writes. main reads every location back after the joins, so
// the final heap is observed by reads and replay must reproduce it.
const mapStressSrc = `
var m = null;
var arr = null;
fun worker(w) {
  var seen = 0;
  for (var i = 0; i < 60; i = i + 1) {
    m[(i * (w + 1)) % 12] = w * 1000 + i;
    var v = m[(i + w) % 12];
    if (v != null) { seen = seen + 1; }
    if (contains(m, i % 12)) { seen = seen + 1; }
    seen = seen + len(m);
    arr[(i + w) % 8] = arr[i % 8] + 1;
    if (i % 7 == w) { remove(m, (i + 3) % 12); }
    if (i % 20 == 0) { seen = seen + len(keys(m)); }
  }
  print(seen);
}
fun main() {
  m = newmap();
  arr = newarr(8);
  for (var i = 0; i < 8; i = i + 1) { arr[i] = 0; }
  var ts = newarr(4);
  for (var i = 0; i < 4; i = i + 1) { ts[i] = spawn worker(i); }
  for (var i = 0; i < 4; i = i + 1) { join ts[i]; }
  var ks = keys(m);
  var sum = 0;
  for (var i = 0; i < len(ks); i = i + 1) { sum = sum + m[ks[i]]; }
  var a = 0;
  for (var i = 0; i < 8; i = i + 1) { a = a * 31 + arr[i]; }
  print(len(ks), sum, a);
}
`

// TestMapArrayStress records map- and array-heavy racing programs on real
// parallelism in a normal (non-race) build — the configuration whose
// optimistic read path runs heap-read closures concurrently with writers —
// and requires every run to replay with the recorded outputs and final
// heap. Race builds take the stripe-lock path instead (and the program's
// own races would trip the detector), so the test is skipped there.
func TestMapArrayStress(t *testing.T) {
	if raceDetector {
		t.Skip("race builds serialize the recorder's read path")
	}
	prog := compile(t, mapStressSrc)
	for _, procs := range []int{2, 8} {
		for name, opts := range map[string]Options{"basic": {}, "o1": {O1: true}} {
			t.Run(fmt.Sprintf("procs%d/%s", procs, name), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				for seed := uint64(0); seed < 6; seed++ {
					rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: seed})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if rep.Diverged {
						t.Fatalf("seed %d: diverged: %s", seed, rep.Reason)
					}
					sameBehavior(t, rec.Result, rep.Result)
					want := vm.HeapFingerprint(rec.Result.Globals)
					if got := vm.HeapFingerprint(rep.Result.Globals); got != want {
						t.Fatalf("seed %d: replayed heap %q, recorded %q", seed, got, want)
					}
				}
			})
		}
	}
}
