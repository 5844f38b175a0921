package light

import (
	"reflect"
	"testing"

	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// orderIsModel asserts that a schedule's total order satisfies every
// constraint of the full (unpartitioned) system built from the log — the
// soundness contract of the partitioned solve's global merge.
func orderIsModel(t *testing.T, log *trace.Log, sched *Schedule) {
	t.Helper()
	sys := buildSystem(log)
	at := func(tc trace.TC) int {
		p, ok := sched.position(tc)
		if !ok {
			t.Fatalf("constraint references access %+v missing from schedule", tc)
		}
		return p
	}
	conj := sys.chain()
	for _, ls := range sys.locs {
		conj = append(conj, ls.conj...)
	}
	for _, c := range conj {
		if !(at(c[0]) < at(c[1])) {
			t.Errorf("merged order violates conjunctive constraint %+v < %+v (pos %d vs %d)",
				c[0], c[1], at(c[0]), at(c[1]))
		}
	}
	for _, ls := range sys.locs {
		for _, d := range ls.disj {
			if !(at(d.a1) < at(d.b1) || at(d.a2) < at(d.b2)) {
				t.Errorf("merged order violates disjunction (%+v<%+v | %+v<%+v)", d.a1, d.b1, d.a2, d.b2)
			}
		}
	}
}

// TestPartitionDisjointComponents: two dependences over disjoint thread and
// location sets must split into two components, merged in smallest-variable
// order.
func TestPartitionDisjointComponents(t *testing.T) {
	log := &trace.Log{
		Threads: []string{"t0", "t1", "t2", "t3"},
		NumLocs: 2,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 1, Counter: 2}},
			{Loc: 1, W: trace.TC{Thread: 2, Counter: 1}, R: trace.TC{Thread: 3, Counter: 2}},
		},
	}
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.Components != 2 {
		t.Fatalf("components = %d, want 2", sched.Stats.Components)
	}
	if sched.Stats.LargestComponent != 2 {
		t.Fatalf("largest component = %d, want 2", sched.Stats.LargestComponent)
	}
	want := []trace.TC{
		{Thread: 0, Counter: 1}, {Thread: 1, Counter: 2},
		{Thread: 2, Counter: 1}, {Thread: 3, Counter: 2},
	}
	if !reflect.DeepEqual(sched.Order, want) {
		t.Fatalf("order = %+v, want %+v", sched.Order, want)
	}
	orderIsModel(t, log, sched)
}

// TestPartitionSCCCollapse: two locations whose accesses alternate along
// both thread timelines form one cluster-graph cycle, and each keeps a
// residual write-range exclusion. The engine constructs each location on
// its own against the global propagated order and the final sort accepts
// the union, so both clusters stay separate and on the fast path, with no
// CDCL(T) search.
func TestPartitionSCCCollapse(t *testing.T) {
	log := &trace.Log{
		Threads: []string{"t0", "t1"},
		NumLocs: 2,
		Ranges: []trace.Range{
			{Loc: 0, Thread: 0, Start: 1, End: 1, HasWrite: true},
			{Loc: 1, Thread: 0, Start: 2, End: 2, HasWrite: true},
			{Loc: 1, Thread: 1, Start: 1, End: 1, HasWrite: true},
			{Loc: 0, Thread: 1, Start: 2, End: 2, HasWrite: true},
		},
	}
	if locs := residualLocs(t, log); len(locs) != 2 {
		t.Fatalf("residual disjunctions on locations %v, want both", locs)
	}
	auto, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if st := auto.Stats; st.Components != 2 || st.FastpathComponents != 2 || st.Solver != (smt.Stats{}) {
		t.Fatalf("components=%d fastpath=%d solver %+v, want 2/2 and no CDCL(T) search", st.Components, st.FastpathComponents, st.Solver)
	}
	if err := CheckSchedule(log, auto); err != nil {
		t.Fatal(err)
	}
	orderIsModel(t, log, auto)
}

// TestPartitionTopoOrder: two components joined by one thread's program order
// (a DAG, no cycle) stay separate, and the merge emits them in dependence
// order so the cross-component chain edge holds.
func TestPartitionTopoOrder(t *testing.T) {
	log := &trace.Log{
		Threads: []string{"t0", "t1", "t2"},
		NumLocs: 2,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 1, Counter: 1}},
			{Loc: 1, W: trace.TC{Thread: 0, Counter: 2}, R: trace.TC{Thread: 2, Counter: 1}},
		},
	}
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.Components != 2 {
		t.Fatalf("components = %d, want 2", sched.Stats.Components)
	}
	p1, ok1 := sched.position(trace.TC{Thread: 0, Counter: 1})
	p2, ok2 := sched.position(trace.TC{Thread: 0, Counter: 2})
	if !ok1 || !ok2 || p1 >= p2 {
		t.Fatalf("cross-component program order violated: %+v", sched.Order)
	}
	orderIsModel(t, log, sched)
}

// sharedAccessLog names one access, t0:1, as the write of two locations'
// dependences. A recording never does this (every access touches one
// location), but the log is shape-valid: it is the one kind of input on
// which location clusters that share an access would differ from the
// locations.
func sharedAccessLog() *trace.Log {
	return &trace.Log{
		Threads: []string{"t0", "t1", "t2"},
		NumLocs: 2,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 1, Counter: 1}},
			{Loc: 1, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 2, Counter: 1}},
		},
	}
}

// TestAccessUnderTwoLocations: an access named under two locations still
// solves to a checked schedule, and each location counts as a component.
func TestAccessUnderTwoLocations(t *testing.T) {
	log := sharedAccessLog()
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	if st := sched.Stats; st.Components != 2 || st.FastpathComponents != 2 || st.LargestComponent != 2 {
		t.Fatalf("stats %+v, want 2 components, 2 fastpath, largest 2", st)
	}
}

// TestPartitionedSolveEquivalence is the acceptance check: on every workload,
// the solve produces a model of the whole constraint system, and its
// components are the log's locations.
func TestPartitionedSolveEquivalence(t *testing.T) {
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
			rec := Record(prog, Options{O1: true}, RunConfig{Seed: 11})
			sched, err := ComputeSchedule(rec.Log)
			if err != nil {
				t.Fatal(err)
			}
			// Every access belongs to one location, so the components
			// are the locations the log names.
			locs := map[int32]bool{}
			for _, d := range rec.Log.Deps {
				locs[d.Loc] = true
			}
			for _, r := range rec.Log.Ranges {
				locs[r.Loc] = true
			}
			st := sched.Stats
			if st.Components != len(locs) {
				t.Errorf("%d components for %d locations", st.Components, len(locs))
			}
			if st.Solver == (smt.Stats{}) && st.FastpathComponents != st.Components {
				t.Errorf("no search ran, but only %d of %d components count as fastpath", st.FastpathComponents, st.Components)
			}
			orderIsModel(t, rec.Log, sched)
		})
	}
}
