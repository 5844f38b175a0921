package light

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func compile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	p, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// sameBehavior checks the Theorem 1 contract between a record result and a
// replay result: identical per-thread outputs (every printed value derives
// from reads), identical final counters, and identical bug sets.
func sameBehavior(t *testing.T, rec, rep *vm.Result) {
	t.Helper()
	if len(rec.Threads) != len(rep.Threads) {
		t.Fatalf("thread count: record %d, replay %d", len(rec.Threads), len(rep.Threads))
	}
	for path, r := range rec.Threads {
		q, ok := rep.Threads[path]
		if !ok {
			t.Fatalf("replay missing thread %s", path)
		}
		if !reflect.DeepEqual(r.Output, q.Output) {
			t.Errorf("thread %s output:\nrecord: %v\nreplay: %v", path, r.Output, q.Output)
		}
		if r.Counter != q.Counter {
			t.Errorf("thread %s counter: record %d, replay %d", path, r.Counter, q.Counter)
		}
		if (r.Err == nil) != (q.Err == nil) {
			t.Errorf("thread %s error: record %v, replay %v", path, r.Err, q.Err)
		} else if r.Err != nil && !r.Err.SameBug(q.Err) {
			t.Errorf("thread %s bug mismatch: record %v, replay %v", path, r.Err, q.Err)
		}
	}
}

func allVariants() map[string]Options {
	return map[string]Options{
		"basic":  {}, // Algorithm 1 with prec
		"noprec": {DisablePrec: true},
		"o1":     {O1: true},
	}
}

func TestSingleThreadRoundTrip(t *testing.T) {
	prog := compile(t, `
class C { field f; field g; }
var c = null;
fun main() {
  c = new C();
  c.f = 1;
  c.g = c.f + 1;
  var s = 0;
  for (var i = 0; i < 20; i = i + 1) {
    c.f = i;
    s = s + c.f + c.g;
  }
  print(s, c.f, c.g);
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameBehavior(t, rec.Result, rep.Result)
		})
	}
}

func TestRacyCounterRoundTrip(t *testing.T) {
	// Unsynchronized increments: the final count depends on interleaving;
	// replay must reproduce exactly the recorded (lossy) value.
	prog := compile(t, `
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
  var t1 = spawn bump(200);
  var t2 = spawn bump(200);
  join t1; join t2;
  print(c.n);
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sameBehavior(t, rec.Result, rep.Result)
			}
		})
	}
}

func TestSyncProgramRoundTrip(t *testing.T) {
	prog := compile(t, `
class Acct { field bal; }
var a = null;
var b = null;
fun transfer(n) {
  for (var i = 0; i < n; i = i + 1) {
    sync (a) {
      sync (b) {
        a.bal = a.bal - 1;
        b.bal = b.bal + 1;
      }
    }
  }
}
fun main() {
  a = new Acct(); b = new Acct();
  a.bal = 1000; b.bal = 0;
  var t1 = spawn transfer(50);
  var t2 = spawn transfer(50);
  join t1; join t2;
  print(a.bal, b.bal);
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			sameBehavior(t, rec.Result, rep.Result)
			if out := rep.Result.Output("0"); !reflect.DeepEqual(out, []string{"900 100"}) {
				t.Errorf("output = %v", out)
			}
		})
	}
}

func TestWaitNotifyRoundTrip(t *testing.T) {
	prog := compile(t, `
class Box { field full; field item; }
var box = null;
fun producer(n) {
  for (var i = 1; i <= n; i = i + 1) {
    sync (box) {
      while (box.full) { wait(box); }
      box.item = i;
      box.full = true;
      notifyAll(box);
    }
  }
}
fun consumer(n) {
  var sum = 0;
  for (var i = 0; i < n; i = i + 1) {
    sync (box) {
      while (!box.full) { wait(box); }
      sum = sum + box.item;
      box.full = false;
      notifyAll(box);
    }
  }
  print(sum);
}
fun main() {
  box = new Box();
  box.full = false;
  var p = spawn producer(10);
  var c = spawn consumer(10);
  join p; join c;
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			sameBehavior(t, rec.Result, rep.Result)
		})
	}
}

// TestBoundedBufferBothWaitRoundTrip is the regression test for the O1
// read-only-run taint hole: a bounded buffer whose head/tail counters each
// have a single writer, with BOTH sides blocking in wait. The waiter's guard
// reads form a read-only run; the peer's reads of the same counter interleave
// into it (pinned by the notify ghost dependences) before the counter's next
// write. Without tainting read-only runs, that write is absorbed into a mixed
// range whose start hides the write's true position, and the replay
// constraint system goes unsatisfiable ("contradicts Lemma 4.1").
func TestBoundedBufferBothWaitRoundTrip(t *testing.T) {
	prog := compile(t, `
var head = 0;
var tail = 0;
var lock = null;

fun produce(n) {
  for (var i = 0; i < n; i = i + 1) {
    sync (lock) {
      while (tail - head >= 2) { wait(lock); }
      tail = tail + 1;
      notify(lock);
    }
  }
}
fun consume(n) {
  for (var got = 0; got < n; got = got + 1) {
    sync (lock) {
      while (head >= tail) { wait(lock); }
      head = head + 1;
      notify(lock);
    }
  }
}
fun main() {
  lock = newmap();
  var p = spawn produce(6);
  var c = spawn consume(6);
  join p; join c;
  print(head);
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sameBehavior(t, rec.Result, rep.Result)
			}
		})
	}
}

func TestSyscallSubstitution(t *testing.T) {
	prog := compile(t, `
fun main() {
  var a = time();
  var b = random(1000000);
  var c = time();
  print(a, b, c);
}
`)
	rec, rep, err := RecordAndReplay(prog, Options{O1: true}, RunConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, rec.Result, rep.Result)
}

func TestBugReproductionNPE(t *testing.T) {
	// The Cache4j-style bug: one thread nulls a field between another
	// thread's null check and use. Sleeps bias the record run to hit it.
	prog := compile(t, `
class Cache { field obj; }
class Obj { field createTime; }
var cache = null;
fun invalidator() {
  sleep(50);
  cache.obj = null;
}
fun getter() {
  var o = cache.obj;
  if (o != null) {
    sleep(200);
    var t = cache.obj.createTime; // may NPE if invalidator ran
    print(t);
  }
}
fun main() {
  cache = new Cache();
  var o = new Obj();
  o.createTime = 42;
  cache.obj = o;
  var g = spawn getter();
  var i = spawn invalidator();
  join g; join i;
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			var hit bool
			for seed := uint64(0); seed < 30; seed++ {
				rec := Record(prog, opts, RunConfig{Seed: seed, SleepUnit: 10_000})
				rep, err := Replay(prog, rec.Log, RunConfig{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if rep.Diverged {
					t.Fatalf("seed %d: diverged: %s", seed, rep.Reason)
				}
				sameBehavior(t, rec.Result, rep.Result)
				if !Reproduced(rec.Log, rep.Result) {
					t.Fatalf("seed %d: bug set not reproduced", seed)
				}
				if len(rec.Log.Bugs) > 0 {
					hit = true
					break
				}
			}
			if !hit {
				t.Error("the buggy interleaving never manifested in 30 record runs")
			}
		})
	}
}

func TestBlindWriteSuppression(t *testing.T) {
	// The final writes to c.f are never read; replay must still succeed.
	prog := compile(t, `
class C { field f; }
var c = null;
fun w1() { c.f = 111; }
fun w2() { c.f = 222; }
fun main() {
  c = new C();
  c.f = 5;
  var x = c.f;
  var a = spawn w1();
  var b = spawn w2();
  join a; join b;
  print(x);
}
`)
	rec, rep, err := RecordAndReplay(prog, Options{}, RunConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, rec.Result, rep.Result)
}

func TestMapsAndArraysRoundTrip(t *testing.T) {
	prog := compile(t, `
var m = null;
var arr = null;
fun writer(base) {
  for (var i = 0; i < 20; i = i + 1) {
    m[base + i] = base * 1000 + i;
    arr[i % 8] = base + i;
  }
}
fun reader() {
  var sum = 0;
  for (var i = 0; i < 20; i = i + 1) {
    var v = m[i];
    if (v != null) { sum = sum + v; }
    var w = arr[i % 8];
    if (w != null) { sum = sum + w; }
  }
  print(sum);
}
fun main() {
  m = newmap();
  arr = newarr(8);
  var w1 = spawn writer(0);
  var w2 = spawn writer(100);
  var r = spawn reader();
  join w1; join w2; join r;
  print(len(m));
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 3; seed++ {
				rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: seed})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sameBehavior(t, rec.Result, rep.Result)
			}
		})
	}
}

func TestO1ReducesLogSize(t *testing.T) {
	// Long same-thread bursts on shared locations: O1 should collapse them.
	prog := compile(t, `
class C { field f; }
var c = null;
fun burst(n) {
  for (var i = 0; i < n; i = i + 1) {
    c.f = i;
    var x = c.f;
  }
}
fun main() {
  c = new C();
  var t1 = spawn burst(300);
  join t1;
  var t2 = spawn burst(300);
  join t2;
}
`)
	basic := Record(prog, Options{}, RunConfig{Seed: 1})
	o1 := Record(prog, Options{O1: true}, RunConfig{Seed: 1})
	if o1.Log.SpaceLongs*4 > basic.Log.SpaceLongs {
		t.Errorf("O1 log (%d longs) not ≪ basic log (%d longs)", o1.Log.SpaceLongs, basic.Log.SpaceLongs)
	}
	// And O1 logs still replay correctly.
	rep, err := Replay(prog, o1.Log, RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, o1.Result, rep.Result)
}

func TestPrecReducesVsNoPrec(t *testing.T) {
	prog := compile(t, `
class C { field f; }
var c = null;
fun rdr() {
  var s = 0;
  for (var i = 0; i < 100; i = i + 1) { s = s + c.f; }
  print(s);
}
fun main() {
  c = new C();
  c.f = 1;
  var t1 = spawn rdr();
  join t1;
}
`)
	noprec := Record(prog, Options{DisablePrec: true}, RunConfig{Seed: 1})
	prec := Record(prog, Options{}, RunConfig{Seed: 1})
	if prec.Log.SpaceLongs >= noprec.Log.SpaceLongs {
		t.Errorf("prec log (%d) not smaller than no-prec log (%d)", prec.Log.SpaceLongs, noprec.Log.SpaceLongs)
	}
}

func TestManyThreadsStress(t *testing.T) {
	prog := compile(t, `
class C { field n; }
var c = null;
var l = null;
fun work(k) {
  for (var i = 0; i < k; i = i + 1) {
    if (i % 3 == 0) {
      sync (l) { c.n = c.n + 1; }
    } else {
      c.n = c.n + 1; // racy path
    }
  }
}
fun main() {
  c = new C(); l = new C();
  c.n = 0;
  var ts = newarr(6);
  for (var i = 0; i < 6; i = i + 1) { ts[i] = spawn work(60); }
  for (var i = 0; i < 6; i = i + 1) { join ts[i]; }
  print(c.n >= 120);
}
`)
	for name, opts := range allVariants() {
		t.Run(name, func(t *testing.T) {
			rec, rep, err := RecordAndReplay(prog, opts, RunConfig{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			sameBehavior(t, rec.Result, rep.Result)
		})
	}
}

func TestScheduleStatsPopulated(t *testing.T) {
	prog := compile(t, `
class C { field f; }
var c = null;
fun w() { c.f = 2; }
fun main() {
  c = new C();
  c.f = 1;
  var t1 = spawn w();
  var x = c.f;
  join t1;
  print(x);
}
`)
	rec := Record(prog, Options{}, RunConfig{Seed: 5})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.IntVars == 0 {
		t.Error("no int vars in schedule stats")
	}
	if len(sched.Order) != sched.Stats.IntVars {
		t.Errorf("order length %d != vars %d", len(sched.Order), sched.Stats.IntVars)
	}
}

// TestRecordAndSolve pins the record-then-solve contract: the schedule is
// the batch schedule of the recorded log and passes the checker, the
// solve time lies inside the time-to-first-replay, and every component is
// solved after the recording.
func TestRecordAndSolve(t *testing.T) {
	w := workloads.ByName("jgf-crypt")
	if w == nil {
		t.Fatal("jgf-crypt workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec, sched, st, ttfr, err := RecordAndSolve(prog, Options{O1: true}, RunConfig{Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSchedules(batch, sched); !d.Equal() {
		t.Fatalf("RecordAndSolve schedule differs from the batch solve: %s", d)
	}
	if err := CheckSchedule(rec.Log, sched); err != nil {
		t.Fatalf("schedule rejected by checker: %v", err)
	}
	if st.FinishNS <= 0 || time.Duration(st.FinishNS) > ttfr {
		t.Fatalf("FinishNS = %d, want in (0, ttfr %d]", st.FinishNS, ttfr)
	}
	if st.Stragglers != sched.Stats.Components {
		t.Fatalf("Stragglers = %d, want every component (%d)", st.Stragglers, sched.Stats.Components)
	}
	if st.SpecSolved != 0 || st.Reused != 0 || st.Wasted != 0 {
		t.Fatalf("speculation counters %+v, want 0", st)
	}
}

// requireMatchesAuto fails unless sched, solved from log, is byte-identical
// to the schedule a fresh ComputeSchedule gives for the same log, and passes
// the checker.
func requireMatchesAuto(t *testing.T, log *trace.Log, sched *Schedule) {
	t.Helper()
	auto, err := ComputeSchedule(log)
	if err != nil {
		t.Fatalf("auto solve: %v", err)
	}
	if d := DiffSchedules(auto, sched); !d.Equal() {
		t.Fatalf("schedule differs from the auto solve: %s", d)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("schedule rejected by checker: %v", err)
	}
}

// TestStreamMatchesAuto: on every workload, the schedule RecordAndSolve
// returns alongside its StreamStats is byte-identical to the batch schedule
// of the recorded log.
func TestStreamMatchesAuto(t *testing.T) {
	all := workloads.All()
	if testing.Short() {
		all = all[:6]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rec, sched, st, _, err := RecordAndSolve(prog, Options{O1: true}, RunConfig{Seed: 11}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if st.Stragglers != sched.Stats.Components {
				t.Fatalf("Stragglers = %d, want every component (%d)", st.Stragglers, sched.Stats.Components)
			}
			requireMatchesAuto(t, rec.Log, sched)
		})
	}
}

// TestStreamMatchesAutoResidual covers the log shapes the workloads never
// produce — residual disjunctions decided by construction, including ones
// ordered through another cluster, and a merge cycle that reaches CDCL(T).
// Two solves must reproduce the forced/chosen edge sets exactly for byte
// identity to hold.
func TestStreamMatchesAutoResidual(t *testing.T) {
	for _, c := range []struct {
		name string
		log  *trace.Log
	}{
		{"residual", residualLog()},
		{"bridged", bridgedResidualLog()},
		{"replicated", replicatedResidualLog(4)},
		{"merge-cycle", mergeCycleLog()},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sched, err := ComputeSchedule(c.log)
			if err != nil {
				t.Fatal(err)
			}
			if sched.Stats.Components == 0 {
				t.Fatal("synthetic log produced no components")
			}
			requireMatchesAuto(t, c.log, sched)
		})
	}
}

// TestPreprocessingMatchesDirectSolve: the propagation pass that decides
// disjunctions before any search must leave a schedule the checker accepts.
// A system propagation decides in full needs no CDCL(T) search, and a
// solve that runs none must count every component as fastpath: the
// disjunctions propagation leaves are constructed location by location.
// (These recordings keep residual disjunctions on the two fields' locations
// in some runs.)
func TestPreprocessingMatchesDirectSolve(t *testing.T) {
	prog := compile(t, `
class C { field f; field g; }
var c = null;
fun w(v) {
  for (var i = 0; i < 10; i = i + 1) {
    c.f = v;
    c.g = c.f + v;
    var x = c.g;
  }
}
fun main() {
  c = new C();
  c.f = 0; c.g = 0;
  var t1 = spawn w(1);
  var t2 = spawn w(2);
  join t1; join t2;
  print(c.f, c.g);
}
`)
	for seed := uint64(0); seed < 3; seed++ {
		rec := Record(prog, Options{O1: true}, RunConfig{Seed: seed})
		pre, err := ComputeSchedule(rec.Log)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckSchedule(rec.Log, pre); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := pre.Stats
		if st.Resolved > st.Disjunctions {
			t.Errorf("seed %d: resolved %d of %d disjunctions", seed, st.Resolved, st.Disjunctions)
		}
		searched := st.Solver != (smt.Stats{})
		if st.Resolved == st.Disjunctions && searched {
			t.Errorf("seed %d: every disjunction resolved, yet CDCL(T) ran: %+v", seed, st.Solver)
		}
		if !searched && st.FastpathComponents != st.Components {
			t.Errorf("seed %d: no CDCL(T) search, but only %d of %d components fastpath",
				seed, st.FastpathComponents, st.Components)
		}
	}
}

func TestReplayTwiceIsStable(t *testing.T) {
	// Replaying the same log twice must give identical behavior both times.
	prog := compile(t, `
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
`)
	rec := Record(prog, Options{O1: true}, RunConfig{Seed: 17})
	r1, err := Replay(prog, rec.Log, RunConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(prog, rec.Log, RunConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sameBehavior(t, rec.Result, r1.Result)
	sameBehavior(t, r1.Result, r2.Result)
}

func TestRecorderSpaceAccounting(t *testing.T) {
	prog := compile(t, `
class C { field f; }
var c = null;
fun main() {
  c = new C();
  c.f = 1;
  var x = c.f;
  print(x, time());
}
`)
	rec := Record(prog, Options{}, RunConfig{Seed: 0})
	wantMin := int64(1) // at least the syscall
	if rec.Log.SpaceLongs < wantMin {
		t.Errorf("space = %d, want >= %d", rec.Log.SpaceLongs, wantMin)
	}
	if rec.Log.NumLocs == 0 {
		t.Error("no locations observed")
	}
	if got := fmt.Sprint(rec.Log.Tool); got != "light" {
		t.Errorf("tool = %s", got)
	}
}
