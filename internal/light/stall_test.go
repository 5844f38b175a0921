package light

import (
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
)

// Exact stall detection: a replay that cannot make progress is flagged the
// moment its last runnable thread blocks or exits, with no clock involved.
// These tests sleep on nothing and set no timeout; a missed stall hangs them.

// TestStallIncompleteReplayReported replays a schedule holding a position
// the run never reaches through ReplayScheduled: every thread runs to its
// end, and the outcome must report the replay as an incomplete-schedule
// stall anchored at the executed prefix.
func TestStallIncompleteReplayReported(t *testing.T) {
	prog, rec, bad, at := unreachableEntrySchedule(t)
	out, err := ReplayScheduled(prog, rec.Log, RunConfig{}, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Diverged || out.Divergence == nil || out.Divergence.Kind != DivStall {
		t.Fatalf("diverged=%v divergence %v, want a stall", out.Diverged, out.Divergence)
	}
	if div := out.Divergence; div.Pos != at || div.Turn != at {
		t.Errorf("stall anchored at pos %d turn %d, want %d", div.Pos, div.Turn, at)
	}
	if out.Forensics == nil {
		t.Error("stall without a forensic report")
	}
}

// TestStallMutualWaitDeadlock replays a hand-built schedule in which two
// workers each wait for a later access of the other: on x, worker b's
// accesses come first, on y worker a's, and each worker's first gated
// access is on the location the other owns first.
func TestStallMutualWaitDeadlock(t *testing.T) {
	prog := compile(t, `
var x = 0;
var y = 0;
fun ta() { x = x + 1; y = y + 1; }
fun tb() { y = y + 1; x = x + 1; }
fun main() {
  var a = spawn ta();
  var b = spawn tb();
  join a; join b;
  print(x + y);
}
`)
	rec := Record(prog, Options{}, RunConfig{Seed: 1})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := rec.Log.ThreadIndex("0.1"), rec.Log.ThreadIndex("0.2")
	locs := scheduleLocs(rec.Log)
	// Counter 1 of a worker is its start read; counter 2 its first read.
	x, y := locs[trace.TC{Thread: ta, Counter: 2}], locs[trace.TC{Thread: tb, Counter: 2}]
	if x == y {
		t.Fatalf("x and y share location %d", x)
	}
	order := rearrangeLoc(t, locs, sched.Order, x, threadsInOrder(tb, ta))
	order = rearrangeLoc(t, locs, order, y, threadsInOrder(ta, tb))
	assertStall(t, prog, rec, newSchedule(rec.Log, order, sched.Stats))
}

// TestStallJoinDeadlock replays a hand-built schedule in which main's join
// read of the child's life location passes its gate right after the child's
// start read, and the child's first access of x waits for main's, which main
// reaches only after the join returns: main waits in join for a child parked
// on main.
func TestStallJoinDeadlock(t *testing.T) {
	prog := compile(t, `
var x = 0;
fun child() { x = x + 1; }
fun main() {
  var a = spawn child();
  join a;
  x = x + 1;
  print(x);
}
`)
	rec := Record(prog, Options{}, RunConfig{Seed: 1})
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	ch := rec.Log.ThreadIndex("0.1")
	locs := scheduleLocs(rec.Log)
	life, x := locs[trace.TC{Thread: ch, Counter: 1}], locs[trace.TC{Thread: ch, Counter: 2}]
	if life == x {
		t.Fatalf("life and x share location %d", x)
	}
	// Life: spawn write, start read, join read, exit write.
	order := rearrangeLoc(t, locs, sched.Order, life, func(es []trace.TC) []trace.TC {
		if len(es) != 4 || es[0].Thread != 0 || es[1] != (trace.TC{Thread: ch, Counter: 1}) || es[3].Thread != 0 {
			t.Fatalf("life location entries %v, want spawn, start, exit, join", es)
		}
		return []trace.TC{es[0], es[1], es[3], es[2]}
	})
	// x: every main access before the child's.
	order = rearrangeLoc(t, locs, order, x, threadsInOrder(ch))
	assertStall(t, prog, rec, newSchedule(rec.Log, order, sched.Stats))
}

// scheduleLocs maps every access the log names to its location, the first
// naming winning as in buildReplayGates.
func scheduleLocs(log *trace.Log) map[trace.TC]int32 {
	locs := map[trace.TC]int32{}
	name := func(tc trace.TC, l int32) {
		if _, ok := locs[tc]; !ok {
			locs[tc] = l
		}
	}
	for _, d := range log.Deps {
		name(d.R, d.Loc)
		name(d.W, d.Loc)
	}
	for _, rg := range log.Ranges {
		name(trace.TC{Thread: rg.Thread, Counter: rg.Start}, rg.Loc)
		name(trace.TC{Thread: rg.Thread, Counter: rg.End}, rg.Loc)
	}
	return locs
}

// rearrangeLoc returns order with the entries on location loc permuted by
// arrange; they keep the positions the location held, so only that
// location's order changes.
func rearrangeLoc(t *testing.T, locs map[trace.TC]int32, order []trace.TC, loc int32, arrange func([]trace.TC) []trace.TC) []trace.TC {
	t.Helper()
	var slots []int
	var es []trace.TC
	for i, tc := range order {
		if l, ok := locs[tc]; ok && l == loc {
			slots = append(slots, i)
			es = append(es, tc)
		}
	}
	es = arrange(es)
	out := slices.Clone(order)
	for i, p := range slots {
		out[p] = es[i]
	}
	return out
}

// threadsInOrder arranges a location's entries thread by thread: those of
// threads not listed (main's) first, then each listed thread's in turn,
// every thread keeping its own order.
func threadsInOrder(threads ...int32) func([]trace.TC) []trace.TC {
	return func(es []trace.TC) []trace.TC {
		rank := func(tc trace.TC) int { return slices.Index(threads, tc.Thread) }
		slices.SortStableFunc(es, func(a, b trace.TC) int { return rank(a) - rank(b) })
		return es
	}
}

// assertStall replays the deadlocked schedule and requires a stall anchored
// at the executed prefix, flagged by the time the run returns.
func assertStall(t *testing.T, prog *compiler.Program, rec *RecordOutcome, sched *Schedule) {
	t.Helper()
	out, err := ReplayScheduled(prog, rec.Log, RunConfig{}, sched, 0)
	if err != nil {
		t.Fatal(err)
	}
	div := out.Divergence
	if !out.Diverged || div == nil || div.Kind != DivStall {
		t.Fatalf("diverged=%v divergence %v, want a stall", out.Diverged, div)
	}
	if div.Pos != div.Turn || div.Pos < 0 || div.Pos >= len(sched.Order) {
		t.Errorf("stall anchored at pos %d turn %d of %d, want the executed prefix", div.Pos, div.Turn, len(sched.Order))
	}
}
