package light

import (
	"reflect"
	"testing"
)

// TestBuiltinsRoundTrip drives every value-producing builtin through a
// concurrent record/replay cycle, including the shared-map inspectors
// (len/contains/keys/remove), which are modeled as whole-map accesses.
func TestBuiltinsRoundTrip(t *testing.T) {
	prog := compile(t, `
var m = null;
var l = null;
var log = 0;

fun mutator(id) {
  for (var i = 0; i < 12; i = i + 1) {
    sync (l) {
      m[(id * 3 + i) % 9] = id * 10 + i;
      if (i % 4 == 3) {
        var removed = remove(m, (id + i) % 9);
        if (removed != null) { log = log + removed; }
      }
    }
  }
}

fun inspector() {
  for (var i = 0; i < 8; i = i + 1) {
    sync (l) {
      var n = len(m);
      var has = contains(m, i % 9);
      var ks = keys(m);
      if (n > 0 && has && len(ks) == n) {
        log = log + hash(str(ks[0])) % 97;
      }
      log = log + abs(0 - min(n, max(1, i)));
    }
  }
  print(tid());
}

fun main() {
  m = newmap();
  l = newmap();
  var a = spawn mutator(1);
  var b = spawn mutator(2);
  var c = spawn inspector();
  join a; join b; join c;
  sync (l) { print(log, len(m)); }
}
`)
	for _, opts := range []Options{{}, {O1: true}} {
		for seed := uint64(0); seed < 4; seed++ {
			rec := Record(prog, opts, RunConfig{Seed: seed})
			if b := rec.Result.FirstBug(); b != nil {
				t.Fatalf("record bug: %v", b)
			}
			rep, err := Replay(prog, rec.Log, RunConfig{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rep.Diverged {
				t.Fatalf("seed %d: %s", seed, rep.Reason)
			}
			for path, r := range rec.Result.Threads {
				q := rep.Result.Threads[path]
				if q == nil || !reflect.DeepEqual(r.Output, q.Output) {
					t.Fatalf("seed %d thread %s: record %v, replay %v", seed, path, r.Output, q.Output)
				}
			}
		}
	}
}

// TestKeysArraysRangeWindows replays two keys() arrays that one thread reads
// at the same index in overlapping runs. The replayer keys its range windows
// by each array's allocation identity, so the start of b[0]'s shorter run
// must not replace the open window for a[0].
func TestKeysArraysRangeWindows(t *testing.T) {
	prog := compile(t, `
var a = null;
var b = null;
fun reader(id) {
  var s = 0;
  for (var i = 0; i < 10; i = i + 1) {
    s = s + a[0];
    if (i < 5) { s = s + b[0]; }
  }
  print(id, s);
}
fun main() {
  var m1 = newmap();
  var m2 = newmap();
  m1[7] = 1;
  m2[3] = 1;
  a = keys(m1);
  b = keys(m2);
  var r1 = spawn reader(1);
  var r2 = spawn reader(2);
  join r1; join r2;
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 4; seed++ {
				rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Diverged {
					t.Fatalf("seed %d: %s", seed, rep.Reason)
				}
				sameBehavior(t, rec.Result, rep.Result)
			}
		})
	}
}
