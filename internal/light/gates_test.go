package light

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestReplayGatesPredecessorTable checks the predecessor table on a
// hand-built schedule: each entry waits for the entry just before it on its
// location when that one belongs to another thread, and for nothing
// otherwise; entries the log does not locate, and entries naming a thread
// outside the log's thread table, wait for nothing.
func TestReplayGatesPredecessorTable(t *testing.T) {
	tc := func(th int32, c uint64) trace.TC { return trace.TC{Thread: th, Counter: c} }
	log := &trace.Log{
		Threads: []string{"0", "0.1", "0.2"},
		Deps: []trace.Dep{
			{Loc: 0, W: tc(0, 1), R: tc(1, 1)}, // x: t0#1 -> t1#1
			{Loc: 1, W: tc(0, 2), R: tc(2, 1)}, // y: t0#2 -> t2#1
			{Loc: 0, W: tc(1, 2), R: tc(2, 2)}, // x: t1#2 -> t2#2
			{Loc: 1, W: tc(2, 3), R: tc(1, 3)}, // y: t2#3 -> t1#3
			{Loc: 2, W: tc(5, 1), R: tc(0, 9)}, // thread 5 is not in the table
		},
		Ranges: []trace.Range{
			{Loc: 1, Thread: 2, Start: 3, End: 6, W: tc(2, 3), HasWrite: true},
		},
	}
	order := []trace.TC{
		tc(0, 1), tc(0, 2), // 0 1
		tc(2, 1), tc(1, 1), // 2 3
		tc(1, 2), tc(2, 2), // 4 5
		tc(2, 3), tc(2, 6), // 6 7
		tc(1, 3), tc(5, 1), // 8 9
		tc(0, 9), tc(1, 7), // 10 11: t1#7 has no location
	}
	sched := newSchedule(log, order, ScheduleStats{})
	g := sched.gates()

	wants := []int32{
		-1, // 0 t0#1: first on x
		-1, // 1 t0#2: first on y
		1,  // 2 t2#1 (y): after t0#2
		0,  // 3 t1#1 (x): after t0#1
		-1, // 4 t1#2 (x): after t1#1, its own
		4,  // 5 t2#2 (x): after t1#2
		-1, // 6 t2#3 (y): after t2#1, its own
		-1, // 7 t2#6 (y, range end): after t2#3, its own
		7,  // 8 t1#3 (y): after t2#6
		-1, // 9 t5#1: thread outside the table
		-1, // 10 t0#9: first on loc 2
		-1, // 11 t1#7: no location
	}
	for p, q := range wants {
		if g.wait[p] != q {
			t.Errorf("position %d (%v): waits for %d, want %d", p, order[p], g.wait[p], q)
		}
	}

	gated := func(th int) []uint64 {
		var cs []uint64
		for _, ga := range g.threads[th].gated {
			cs = append(cs, ga.counter)
		}
		return cs
	}
	if got := gated(1); !slices.Equal(got, []uint64{1, 2, 3, 7}) {
		t.Errorf("thread 1 gated counters %v", got)
	}
	if got := g.threads[2].ranges; len(got) != 1 || got[0] != (rangeGate{start: 3, end: 6}) {
		t.Errorf("thread 2 ranges %+v", got)
	}
	if len(g.threads) != len(log.Threads) {
		t.Errorf("%d thread gates for %d log threads", len(g.threads), len(log.Threads))
	}
}

// disjointSrc runs two workers on locations nothing else touches; main
// neither joins them nor reads their globals back, so no gated access of a
// worker has a cross-thread predecessor that could still be pending.
const disjointSrc = `
var a = 0;
var b = 0;
fun wa() { for (var i = 0; i < 30; i = i + 1) { a = a + 1; } }
fun wb() { for (var i = 0; i < 30; i = i + 1) { b = b + 1; } }
fun main() {
  spawn wa();
  spawn wb();
}
`

// TestReplayDisjointThreadsNeverWait replays a schedule whose Order runs two
// workers on disjoint locations strictly in turn. A total-order gate would
// make each worker wait for the other at every step; the per-location gate
// lets both run free, so the replay must not count a single gated wait.
func TestReplayDisjointThreadsNeverWait(t *testing.T) {
	prog := compile(t, disjointSrc)
	rec := Record(prog, Options{}, RunConfig{Seed: 3})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the workers' entries round-robin after main's.
	var mainTCs []trace.TC
	workers := map[int32][]trace.TC{}
	for _, tc := range sched.Order {
		if tc.Thread == 0 {
			if len(workers) > 0 {
				t.Fatalf("main's %v follows a worker entry; the interleaving below assumes it does not", tc)
			}
			mainTCs = append(mainTCs, tc)
		} else {
			workers[tc.Thread] = append(workers[tc.Thread], tc)
		}
	}
	if len(workers) != 2 {
		t.Fatalf("schedule has %d worker threads, want 2", len(workers))
	}
	w1, w2 := workers[1], workers[2]
	if len(w1) < 10 || len(w2) < 10 {
		t.Fatalf("workers gate only %d and %d accesses", len(w1), len(w2))
	}
	order := mainTCs
	for i := 0; i < max(len(w1), len(w2)); i++ {
		if i < len(w1) {
			order = append(order, w1[i])
		}
		if i < len(w2) {
			order = append(order, w2[i])
		}
	}
	alt := newSchedule(rec.Log, order, sched.Stats)
	if err := CheckSchedule(rec.Log, alt); err != nil {
		t.Fatalf("interleaved order is not a valid schedule: %v", err)
	}

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	before := mRepGatedWaits.Value()
	out, err := ReplayScheduled(prog, rec.Log, RunConfig{Seed: 3}, alt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Diverged {
		t.Fatalf("diverged: %s", out.Reason)
	}
	if n := mRepGatedWaits.Value() - before; n != 0 {
		t.Errorf("light_replay_gated_waits_total counted %d waits, want 0", n)
	}
}

// unreachableEntrySchedule records disjointSrc and inserts into its
// schedule, right after main's entries at position at, an access of worker 1
// that the log does not locate and the run never reaches: every thread runs
// to its end, and the replay ends with that position pending.
func unreachableEntrySchedule(t *testing.T) (prog *compiler.Program, rec *RecordOutcome, bad *Schedule, at int) {
	t.Helper()
	prog = compile(t, disjointSrc)
	rec = Record(prog, Options{}, RunConfig{Seed: 3})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	at = slices.IndexFunc(sched.Order, func(tc trace.TC) bool { return tc.Thread != 0 })
	if at < 0 {
		t.Fatal("schedule has no worker entries")
	}
	order := slices.Insert(slices.Clone(sched.Order), at, trace.TC{Thread: 1, Counter: 1 << 40})
	return prog, rec, newSchedule(rec.Log, order, sched.Stats), at
}

// TestStallForensicsReadDoneState stalls a replay on a schedule entry that
// never executes while later entries on other locations do: the stall must
// anchor at the executed prefix (Pos == Turn), and the forensic window must
// mark the later entries executed, reading each position's done state rather
// than assuming only the prefix ran.
func TestStallForensicsReadDoneState(t *testing.T) {
	prog, rec, bad, at := unreachableEntrySchedule(t)
	rep := NewReplayer(bad)
	runReplayVM(prog, rep, rec.Log)
	// The last thread's exit left the inserted position pending: the stall
	// is flagged before the run returns.
	div := rep.Divergence()
	if div == nil || div.Kind != DivStall {
		t.Fatalf("divergence %v, want a stall", div)
	}
	if div.Pos != at || div.Turn != at {
		t.Fatalf("stall anchored at pos %d turn %d, want %d", div.Pos, div.Turn, at)
	}
	if div.Thread != 1 || div.Counter != 1<<40 {
		t.Errorf("stall names t%d#%d, want the inserted t1#%d", div.Thread, div.Counter, uint64(1<<40))
	}
	f := BuildForensics(bad, div, nil)
	var after int
	for _, e := range f.Window {
		if e.Pos < at && !e.Executed {
			t.Errorf("position %d before the prefix marked unexecuted", e.Pos)
		}
		if e.Pos == at && e.Executed {
			t.Errorf("the stalled position %d marked executed", e.Pos)
		}
		if e.Pos > at && e.Executed {
			after++
		}
	}
	if after == 0 {
		t.Error("no position past the stalled one marked executed; the window assumed a total order")
	}
}

// TestReplayUnlocatedEntriesWaitForNothing replays a hand-built schedule
// with two entries no synthesized schedule has: worker 1's exit write
// (t1#61), which no dep or range locates, right after its last gated
// access, and an access of a thread outside the log's thread table right
// after main's entries. The unlocated entry waits for nothing and
// executes; the out-of-table entry executes on no thread, so every thread
// runs to its end and the replay ends in a stall anchored there.
func TestReplayUnlocatedEntriesWaitForNothing(t *testing.T) {
	prog := compile(t, disjointSrc)
	rec := Record(prog, Options{}, RunConfig{Seed: 3})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	last := trace.TC{Thread: 1, Counter: 60}
	unlocated := slices.Index(sched.Order, last) + 1
	if unlocated == 0 {
		t.Fatalf("schedule lacks %v: %v", last, sched.Order)
	}
	order := slices.Insert(slices.Clone(sched.Order), unlocated, trace.TC{Thread: 1, Counter: 61})
	out := slices.IndexFunc(order, func(tc trace.TC) bool { return tc.Thread != 0 })
	order = slices.Insert(order, out, trace.TC{Thread: int32(len(rec.Log.Threads)), Counter: 1})
	unlocated++
	bad := newSchedule(rec.Log, order, sched.Stats)
	if g := bad.gates(); g.wait[unlocated] != -1 || g.wait[out] != -1 {
		t.Fatalf("unlocated entry waits for %d, out-of-table entry for %d; want -1", g.wait[unlocated], g.wait[out])
	}

	rep := NewReplayer(bad)
	runReplayVM(prog, rep, rec.Log)
	div := rep.Divergence()
	if div == nil || div.Kind != DivStall {
		t.Fatalf("divergence %v, want a stall", div)
	}
	if div.Pos != out || div.Turn != out {
		t.Fatalf("stall anchored at pos %d turn %d, want the out-of-table entry at %d", div.Pos, div.Turn, out)
	}
	if rep.state[unlocated].Load() != posDone {
		t.Fatalf("unlocated entry %v at %d did not execute", order[unlocated], unlocated)
	}
}

// handoffSrc passes items between producer/consumer pairs through bounded
// wait/notify queues, like par-handoff, but main reads every location back
// under the locks after the joins: a final write no read observes is not
// ordered by the log, so the heap comparison needs the read-back.
const handoffSrc = `
var queues = null;
var heads = null;
var tails = null;
var locks = null;
fun produce(p, n) {
  for (var i = 0; i < n; i = i + 1) {
    sync (locks[p]) {
      while (tails[p] - heads[p] >= 4) { wait(locks[p]); }
      queues[p * 4 + tails[p] % 4] = i * 7 + p;
      tails[p] = tails[p] + 1;
      notify(locks[p]);
    }
  }
}
fun consume(p, n) {
  var acc = 0;
  for (var got = 0; got < n; got = got + 1) {
    sync (locks[p]) {
      while (heads[p] >= tails[p]) { wait(locks[p]); }
      acc = (acc * 31 + queues[p * 4 + heads[p] % 4]) % 1000003;
      heads[p] = heads[p] + 1;
      notify(locks[p]);
    }
  }
  print(acc);
}
fun main() {
  queues = newarr(12);
  heads = newarr(3);
  tails = newarr(3);
  locks = newarr(3);
  for (var p = 0; p < 3; p = p + 1) { heads[p] = 0; tails[p] = 0; locks[p] = newmap(); }
  var ts = newarr(6);
  for (var p = 0; p < 3; p = p + 1) {
    ts[2 * p] = spawn produce(p, 40);
    ts[2 * p + 1] = spawn consume(p, 40);
  }
  for (var t = 0; t < 6; t = t + 1) { join ts[t]; }
  var sum = 0;
  for (var p = 0; p < 3; p = p + 1) {
    sync (locks[p]) {
      sum = sum + heads[p] + tails[p];
      for (var k = 0; k < 4; k = k + 1) { sum = sum + queues[p * 4 + k]; }
    }
  }
  print(sum);
}
`

// spawnJoinSrc has workers that spawn and join short-lived children in a
// loop, each child adding to a shared counter under its lock; main reads the
// counter back after the joins. Parents block in join while children are
// being spawned, so a replay that counted a child live only once its own
// goroutine ran would see every live thread blocked and report a false stall.
const spawnJoinSrc = `
class C { field n; }
var c = null;
fun leaf(k) { sync (c) { c.n = c.n + k; } }
fun worker(w) {
  for (var r = 0; r < 6; r = r + 1) {
    var a = spawn leaf(w);
    var b = spawn leaf(r);
    join a;
    join b;
  }
}
fun main() {
  c = new C();
  c.n = 0;
  var ts = newarr(4);
  for (var w = 0; w < 4; w = w + 1) { ts[w] = spawn worker(w); }
  for (var w = 0; w < 4; w = w + 1) { join ts[w]; }
  sync (c) { print(c.n); }
}
`

// TestReplayStressPerLocation replays parallel, monitor-heavy and
// spawn-and-join-heavy programs on real parallelism over many seeds: with
// threads released as soon as their location's predecessor executes, every
// replay must still follow its schedule, reproduce the recorded behavior, and
// end on the recorded heap.
// The programs share data only under locks or in disjoint slices, so race
// builds run it too and the detector checks the gates' happens-before
// edges. par-hotfield is the exception: its threads race on one object,
// and its densely interleaved recordings leave single-location residual
// components, so it runs in normal builds only. Its last write to hot.a is
// read by nobody, and replay suppresses such blind writes, so its final
// heap is not compared (ROADMAP item 3); its schedule is checked instead.
func TestReplayStressPerLocation(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	progs := map[string]*compiler.Program{
		"handoff":    compile(t, handoffSrc),
		"spawn-join": compile(t, spawnJoinSrc),
	}
	names := []string{"par-striped", "srv-pool"}
	if !vm.RaceDetector {
		names = append(names, "par-hotfield")
	}
	for _, name := range names {
		prog, err := workloads.ByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = prog
	}
	for _, procs := range []int{1, 2, 8} {
		for name, prog := range progs {
			t.Run(fmt.Sprintf("procs%d/%s", procs, name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for seed := uint64(0); seed < 16; seed++ {
					rec, rep, err := RecordAndReplay(prog, Options{O1: true}, RunConfig{Seed: seed})
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if !Reproduced(rec.Log, rep.Result) {
						t.Fatalf("seed %d: recorded behavior not reproduced", seed)
					}
					sameBehavior(t, rec.Result, rep.Result)
					if name == "par-hotfield" {
						if err := CheckSchedule(rec.Log, rep.Schedule); err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						continue
					}
					want := vm.HeapFingerprint(rec.Result.Globals)
					if got := vm.HeapFingerprint(rep.Result.Globals); got != want {
						t.Fatalf("seed %d: replayed heap %q, recorded %q", seed, got, want)
					}
				}
			})
		}
	}
}
