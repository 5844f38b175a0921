package clap

import (
	"testing"

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

// npeRace is a CLAP-friendly bug: only reference and linear-integer values
// flow through the race.
const npeRace = `
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
    var t = cache.obj.v; // NPE when the invalidator won the race
    print(t);
  }
}
fun main() {
  cache = new Cache();
  var o = new Obj();
  o.v = 42;
  cache.obj = o;
  var g = spawn getter();
  var i = spawn invalidator();
  join g; join i;
}
`

func TestClapReproducesLinearNPE(t *testing.T) {
	prog := compile(t, npeRace)
	var hit, reproduced bool
	for seed := uint64(0); seed < 30; seed++ {
		log, _, _ := Record(prog, seed, nil, 10_000)
		out := Reproduce(prog, log, nil)
		if out.Unsupported != nil {
			t.Fatalf("seed %d: unexpected unsupported: %v", seed, out.Unsupported)
		}
		if out.Err != nil {
			t.Fatalf("seed %d: %v", seed, out.Err)
		}
		if !out.Reproduced {
			t.Fatalf("seed %d: behavior not reproduced (bugs recorded: %d)", seed, len(log.Bugs))
		}
		if len(log.Bugs) > 0 {
			hit = true
			reproduced = out.Reproduced
			break
		}
	}
	if !hit {
		t.Error("the buggy interleaving never manifested")
	}
	if hit && !reproduced {
		t.Error("bug manifested but was not reproduced")
	}
}

func TestClapFailsOnSharedHashMap(t *testing.T) {
	// The same race, but the value flows through a shared HashMap — the
	// paper's canonical solver-expressiveness failure (5 of 8 bugs).
	prog := compile(t, `
var registry = null;
fun invalidator() {
  sleep(50);
  remove(registry, "conn");
}
fun getter() {
  var o = registry["conn"];
  if (o != null) {
    sleep(200);
    print(registry["conn"] + 1);
  }
}
fun main() {
  registry = newmap();
  registry["conn"] = 99;
  var g = spawn getter();
  var i = spawn invalidator();
  join g; join i;
}
`)
	log, _, _ := Record(prog, 1, nil, 10_000)
	out := Reproduce(prog, log, nil)
	if out.Unsupported == nil {
		t.Fatalf("want unsupported (HashMap), got reproduced=%v err=%v", out.Reproduced, out.Err)
	}
}

func TestClapFailsOnNonlinearArithmetic(t *testing.T) {
	prog := compile(t, `
class C { field a; field b; }
var g = null;
fun w() { g.a = 3; }
fun main() {
  g = new C();
  g.a = 2; g.b = 5;
  var t = spawn w();
  var x = g.a;
  var y = g.b;
  if (x * y > 10) { print("big"); } else { print("small"); }
  join t;
}
`)
	log, _, _ := Record(prog, 1, nil, 0)
	out := Reproduce(prog, log, nil)
	if out.Unsupported == nil {
		t.Fatalf("want unsupported (nonlinear), got reproduced=%v err=%v", out.Reproduced, out.Err)
	}
}

func TestClapFailsOnHashOfSymbolic(t *testing.T) {
	prog := compile(t, `
class C { field a; }
var g = null;
fun w() { g.a = 7; }
fun main() {
  g = new C();
  g.a = 1;
  var t = spawn w();
  var h = hash(g.a);
  if (h > 0) { print("p"); }
  join t;
}
`)
	log, _, _ := Record(prog, 1, nil, 0)
	out := Reproduce(prog, log, nil)
	if out.Unsupported == nil {
		t.Fatalf("want unsupported (hash), got reproduced=%v err=%v", out.Reproduced, out.Err)
	}
}

func TestClapRoundTripSimplePrograms(t *testing.T) {
	srcs := map[string]string{
		"single": `
class C { field f; }
var c = null;
fun main() {
  c = new C();
  c.f = 1;
  var s = 0;
  for (var i = 0; i < 10; i = i + 1) { s = s + c.f; }
  print(s);
}`,
		"two-threads-sync": `
class C { field n; }
var c = null;
var l = null;
fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    sync (l) { c.n = c.n + 1; }
  }
}
fun main() {
  c = new C(); l = new C();
  c.n = 0;
  var t1 = spawn bump(5);
  var t2 = spawn bump(5);
  join t1; join t2;
  print(c.n);
}`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			for seed := uint64(0); seed < 2; seed++ {
				log, recRes, _ := Record(prog, seed, nil, 0)
				out := Reproduce(prog, log, nil)
				if out.Unsupported != nil {
					t.Fatalf("seed %d: unsupported: %v", seed, out.Unsupported)
				}
				if out.Err != nil {
					t.Fatalf("seed %d: %v", seed, out.Err)
				}
				if !out.Reproduced {
					t.Fatalf("seed %d: not reproduced", seed)
				}
				// CLAP pins paths and failures, not unbranched values, so
				// the structural shape must match: same threads, same
				// output cardinality per thread.
				for path, tr := range recRes.Threads {
					got := out.Result.Threads[path]
					if got == nil {
						t.Fatalf("missing thread %s", path)
					}
					if len(tr.Output) != len(got.Output) {
						t.Errorf("thread %s output count: record %v, replay %v", path, tr.Output, got.Output)
					}
				}
			}
		})
	}
}

func TestClapSpaceIsTiny(t *testing.T) {
	prog := compile(t, npeRace)
	log, _, _ := Record(prog, 1, nil, 0)
	if log.SpaceLongs > 100 {
		t.Errorf("clap space = %d longs, want tiny (thread-local bits only)", log.SpaceLongs)
	}
}

func TestClapSyscallSubstitution(t *testing.T) {
	prog := compile(t, `
fun main() {
  var a = time();
  var b = random(1000);
  if (a + b > 0) { print(a + b); }
}
`)
	log, recRes, _ := Record(prog, 7, nil, 0)
	out := Reproduce(prog, log, nil)
	if out.Err != nil || out.Unsupported != nil {
		t.Fatalf("err=%v unsupported=%v", out.Err, out.Unsupported)
	}
	want := recRes.Threads["0"].Output
	got := out.Result.Threads["0"].Output
	if len(want) != 1 || len(got) != 1 || want[0] != got[0] {
		t.Errorf("outputs: record %v, replay %v", want, got)
	}
	_ = vm.Null
}

// TestClapBudgetCountsOrderQueries: on an unsynchronized counter one search
// node makes thousands of happens-before queries, each a walk over the
// trace, so a budget that counted nodes alone would let the search run for
// hours. Counting the queries ends it at the budget.
func TestClapBudgetCountsOrderQueries(t *testing.T) {
	prog := compile(t, `
class C { field n; }
var c = null;
fun bump(k) { for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; } }
fun main() {
  c = new C(); c.n = 0;
  var a = spawn bump(40); var b = spawn bump(40);
  join a; join b;
  print(c.n);
}`)
	for seed := uint64(0); seed < 5; seed++ {
		log, _, _ := Record(prog, seed, nil, 0)
		tr, err := runSymbolic(prog, log, nil)
		if err != nil {
			t.Fatalf("seed %d: symbolic run: %v", seed, err)
		}
		if _, err := newMatcher(tr, 2000).solve(); err != ErrBudget {
			t.Errorf("seed %d: solve err = %v, want %v", seed, err, ErrBudget)
		}
	}
}
