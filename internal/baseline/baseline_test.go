// Package baseline_test exercises the LEAP and Stride reimplementations
// end to end against the same MiniJ programs the Light tests use, checking
// the record-based guarantee all three tools share (Section 5.3: "all the
// shared-access record-based approaches have the same guarantees").
package baseline_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline/leap"
	"repro/internal/baseline/stride"
	"repro/internal/compiler"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	p, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func sameBehavior(t *testing.T, rec, rep *vm.Result) {
	t.Helper()
	for path, r := range rec.Threads {
		q, ok := rep.Threads[path]
		if !ok {
			t.Fatalf("replay missing thread %s", path)
		}
		if !reflect.DeepEqual(r.Output, q.Output) {
			t.Errorf("thread %s output:\nrecord: %v\nreplay: %v", path, r.Output, q.Output)
		}
		if (r.Err == nil) != (q.Err == nil) {
			t.Errorf("thread %s error: record %v, replay %v", path, r.Err, q.Err)
		}
	}
}

const racyCounter = `
class C { field n; }
var c = null;
fun bump(k) { for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; } }
fun main() {
  c = new C(); c.n = 0;
  var t1 = spawn bump(100);
  var t2 = spawn bump(100);
  join t1; join t2;
  print(c.n);
}
`

const syncProgram = `
class Box { field full; field item; }
var box = null;
fun producer(n) {
  for (var i = 1; i <= n; i = i + 1) {
    sync (box) {
      while (box.full) { wait(box); }
      box.item = i; box.full = true;
      notifyAll(box);
    }
  }
}
fun consumer(n) {
  var sum = 0;
  for (var i = 0; i < n; i = i + 1) {
    sync (box) {
      while (!box.full) { wait(box); }
      sum = sum + box.item; box.full = false;
      notifyAll(box);
    }
  }
  print(sum);
}
fun main() {
  box = new Box(); box.full = false;
  var p = spawn producer(8);
  var c = spawn consumer(8);
  join p; join c;
}
`

const timeAndRandom = `
fun main() {
  print(time(), random(1000), time());
}
`

func TestLeapRoundTrip(t *testing.T) {
	for name, src := range map[string]string{"racy": racyCounter, "sync": syncProgram, "syscalls": timeAndRandom} {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			for seed := uint64(0); seed < 3; seed++ {
				log, recRes, _ := leap.Record(prog, seed, nil, 0)
				repRes, failed, reason := leap.Replay(prog, log, nil)
				if failed {
					t.Fatalf("seed %d: replay failed: %s", seed, reason)
				}
				sameBehavior(t, recRes, repRes)
			}
		})
	}
}

func TestStrideRoundTrip(t *testing.T) {
	for name, src := range map[string]string{"racy": racyCounter, "sync": syncProgram, "syscalls": timeAndRandom} {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			for seed := uint64(0); seed < 3; seed++ {
				log, recRes, _ := stride.Record(prog, seed, nil, 0)
				repRes, failed, reason, err := stride.Replay(prog, log, nil)
				if err != nil {
					t.Fatalf("seed %d: reconstruct: %v", seed, err)
				}
				if failed {
					t.Fatalf("seed %d: replay failed: %s", seed, reason)
				}
				sameBehavior(t, recRes, repRes)
			}
		})
	}
}

func TestLeapBugReproduction(t *testing.T) {
	prog := compile(t, `
class Cache { field obj; }
class Obj { field v; }
var cache = null;
fun invalidator() { sleep(50); cache.obj = null; }
fun getter() {
  var o = cache.obj;
  if (o != null) {
    sleep(200);
    print(cache.obj.v);
  }
}
fun main() {
  cache = new Cache();
  var o = new Obj(); o.v = 7;
  cache.obj = o;
  var g = spawn getter();
  var i = spawn invalidator();
  join g; join i;
}
`)
	var hit bool
	for seed := uint64(0); seed < 30 && !hit; seed++ {
		log, recRes, _ := leap.Record(prog, seed, nil, 10_000)
		repRes, failed, reason := leap.Replay(prog, log, nil)
		if failed {
			t.Fatalf("seed %d: %s", seed, reason)
		}
		sameBehavior(t, recRes, repRes)
		hit = len(log.Bugs) > 0
	}
	if !hit {
		t.Error("bug never manifested under LEAP recording")
	}
}

func TestStrideBugReproduction(t *testing.T) {
	prog := compile(t, `
class C { field f; }
var g = null;
fun nuller() { sleep(40); g.f = null; }
fun user() {
  var x = g.f;
  sleep(150);
  var y = g.f + 1; // may NPE-equivalent: type error on null + int
  print(y);
}
fun main() {
  g = new C(); g.f = 1;
  var a = spawn user();
  var b = spawn nuller();
  join a; join b;
}
`)
	var hit bool
	for seed := uint64(0); seed < 30 && !hit; seed++ {
		log, recRes, _ := stride.Record(prog, seed, nil, 10_000)
		repRes, failed, reason, err := stride.Replay(prog, log, nil)
		if err != nil || failed {
			t.Fatalf("seed %d: err=%v failed=%s", seed, err, reason)
		}
		sameBehavior(t, recRes, repRes)
		hit = len(log.Bugs) > 0
	}
	if !hit {
		t.Error("bug never manifested under Stride recording")
	}
}

func TestSpaceAccountingShape(t *testing.T) {
	// LEAP logs one long per access; Stride halves it; both record far more
	// than Light does on burst-heavy workloads (checked in the benchmarks).
	prog := compile(t, racyCounter)
	leapLog, _, _ := leap.Record(prog, 1, nil, 0)
	strideLog, _, _ := stride.Record(prog, 1, nil, 0)
	if leapLog.SpaceLongs == 0 || strideLog.SpaceLongs == 0 {
		t.Fatalf("zero space: leap=%d stride=%d", leapLog.SpaceLongs, strideLog.SpaceLongs)
	}
	// Stride records reads+writes as ints: about half of LEAP's longs.
	ratio := float64(strideLog.SpaceLongs) / float64(leapLog.SpaceLongs)
	if ratio < 0.3 || ratio > 0.8 {
		t.Errorf("stride/leap space ratio = %.2f, want ~0.5", ratio)
	}
}

func TestLeapKeyStability(t *testing.T) {
	g := &vm.GlobalsBase{}
	arr := &vm.Array{Elems: make([]vm.Value, 4)}
	m := vm.NewMapObj()
	if leap.Key(vm.GlobalLoc(g, 3)) == leap.Key(vm.GlobalLoc(g, 4)) {
		t.Error("distinct globals share a key")
	}
	if leap.Key(vm.ElemLoc(arr, 1)) == leap.Key(vm.GlobalLoc(g, 1)) {
		t.Error("array element collides with global")
	}
	if leap.Key(vm.MapLoc(m)) == leap.Key(vm.ElemLoc(arr, 0)) {
		t.Error("map collides with array")
	}
}

// bumpProgram spawns two workers that increment a shared counter k1 and k2
// times. Each increment is its own call, so Chimera's patch lock on it
// records one acquire per increment.
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

// isStall reports whether a replay failure reason is a stall: no live thread
// could take its turn, or the last thread exited with turns left.
func isStall(reason string) bool {
	return strings.Contains(reason, "stalled") || strings.Contains(reason, "incomplete")
}

// TestStallShortenedWorker replays a 2×bump(40) recording against a program
// whose second worker runs bump(30): the recorded turns of its last ten
// increments can never be taken, and Replay reports the stall when it
// returns.
func TestStallShortenedWorker(t *testing.T) {
	rec := compile(t, bumpProgram(40, 40))
	short := compile(t, bumpProgram(40, 30))
	for seed := uint64(0); seed < 3; seed++ {
		leapLog, _, _ := leap.Record(rec, seed, nil, 0)
		if _, failed, reason := leap.Replay(short, leapLog, nil); !failed || !isStall(reason) {
			t.Errorf("seed %d: leap replay failed=%v %q, want a stall", seed, failed, reason)
		}
		strideLog, _, _ := stride.Record(rec, seed, nil, 0)
		_, failed, reason, err := stride.Replay(short, strideLog, nil)
		if err != nil {
			t.Fatalf("seed %d: reconstruct: %v", seed, err)
		}
		if !failed || !isStall(reason) {
			t.Errorf("seed %d: stride replay failed=%v %q, want a stall", seed, failed, reason)
		}
	}
}

// TestStallIncompleteReplay replays a recording against a program that
// skips its last write: the only thread exits with a recorded turn left.
func TestStallIncompleteReplay(t *testing.T) {
	rec := compile(t, `var g = 0; fun main() { g = 1; g = 2; }`)
	short := compile(t, `var g = 0; fun main() { g = 1; }`)
	leapLog, _, _ := leap.Record(rec, 1, nil, 0)
	if _, failed, reason := leap.Replay(short, leapLog, nil); !failed || !strings.Contains(reason, "incomplete") {
		t.Errorf("leap replay failed=%v %q, want an incomplete replay", failed, reason)
	}
	strideLog, _, _ := stride.Record(rec, 1, nil, 0)
	_, failed, reason, err := stride.Replay(short, strideLog, nil)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if !failed || !strings.Contains(reason, "incomplete") {
		t.Errorf("stride replay failed=%v %q, want an incomplete replay", failed, reason)
	}
}
