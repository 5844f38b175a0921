package light

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/trace"
)

// TestScheduleWellFormed checks structural schedule invariants on real logs:
// the order is a permutation of the constrained accesses, per-thread
// counters appear in increasing order (program order), and every recorded
// dependence is scheduled write-before-read.
func TestScheduleWellFormed(t *testing.T) {
	for it := 0; it < 10; it++ {
		r := rand.New(rand.NewSource(int64(it) * 104729))
		src := genProgram(r)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {O1: true}} {
			rec := Record(prog, opts, RunConfig{Seed: uint64(it)})
			sched, err := ComputeSchedule(rec.Log)
			if err != nil {
				t.Fatalf("iteration %d: %v", it, err)
			}
			// Permutation: no duplicates, and the position lookup inverts
			// Order.
			pos := make(map[trace.TC]int, len(sched.Order))
			lastPerThread := make(map[int32]uint64)
			for i, tc := range sched.Order {
				if _, dup := pos[tc]; dup {
					t.Fatalf("duplicate scheduled access %+v", tc)
				}
				pos[tc] = i
				if p, ok := sched.position(tc); !ok || p != i {
					t.Fatalf("position(%+v) = %d, %v; want %d", tc, p, ok, i)
				}
				if last, ok := lastPerThread[tc.Thread]; ok && tc.Counter <= last {
					t.Fatalf("thread %d program order violated: %d after %d", tc.Thread, tc.Counter, last)
				}
				lastPerThread[tc.Thread] = tc.Counter
			}
			// Dependences scheduled write-before-read.
			for _, d := range rec.Log.Deps {
				if d.W.IsInitial() {
					continue
				}
				pw, okW := pos[d.W]
				pr, okR := pos[d.R]
				if !okW || !okR {
					t.Fatalf("dep endpoints unscheduled: %+v", d)
				}
				if pw >= pr {
					t.Fatalf("dep scheduled backwards: %+v (w at %d, r at %d)", d, pw, pr)
				}
			}
			// Range heads ordered after their sources.
			for _, g := range rec.Log.Ranges {
				if !g.StartsWithRead || g.W.IsInitial() {
					continue
				}
				pw := pos[g.W]
				ps := pos[trace.TC{Thread: g.Thread, Counter: g.Start}]
				if pw >= ps {
					t.Fatalf("range head scheduled before its source: %+v", g)
				}
			}
		}
	}
}

// TestEmptyLogSchedule: a log with no deps or ranges yields an empty schedule
// without error (zero components, nothing to gate).
func TestEmptyLogSchedule(t *testing.T) {
	sched, err := ComputeSchedule(&trace.Log{Threads: []string{"main"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Order) != 0 || sched.Stats.Components != 0 {
		t.Fatalf("empty log: order %v, components %d", sched.Order, sched.Stats.Components)
	}
}

// TestSingleThreadSchedule: same-thread dependences generate no disjunctions
// (there is nothing to interleave), and the schedule is the program order.
func TestSingleThreadSchedule(t *testing.T) {
	log := &trace.Log{
		Threads: []string{"main"},
		NumLocs: 1,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 0, Counter: 4}},
		},
	}
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.Disjunctions != 0 {
		t.Fatalf("single-thread log produced %d disjunctions", sched.Stats.Disjunctions)
	}
	for i := 1; i < len(sched.Order); i++ {
		a, b := sched.Order[i-1], sched.Order[i]
		if a.Thread != b.Thread || a.Counter >= b.Counter {
			t.Fatalf("schedule not in program order: %+v", sched.Order)
		}
	}
}
