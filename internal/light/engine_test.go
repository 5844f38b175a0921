package light

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/smt"
	"repro/internal/trace"
)

// residualLog builds a log whose constraint system keeps genuinely free
// disjunctions after propagation: three threads each own a write-bearing
// range on location 0 with no dependences ordering them, so the pairwise
// mutual-exclusion disjunctions need CDCL search.
func residualLog() *trace.Log {
	return &trace.Log{
		Threads: []string{"t0", "t1", "t2"},
		NumLocs: 1,
		Ranges: []trace.Range{
			{Loc: 0, Thread: 0, Start: 1, End: 2, HasWrite: true},
			{Loc: 0, Thread: 1, Start: 1, End: 2, HasWrite: true},
			{Loc: 0, Thread: 2, Start: 1, End: 2, HasWrite: true},
		},
	}
}

// bridgedResidualLog extends residualLog with a second location whose
// dependence chain orders t0's range before t1's *through* the other
// cluster (t0:2 → t0:3 → t1:0 → t1:1). That resolves the (t0,t1)
// exclusion by propagation but leaves the two disjunctions involving t2
// residual, with cross-cluster bridge literals between their endpoints —
// the exact shape the merge-soundness argument depends on.
func bridgedResidualLog() *trace.Log {
	log := residualLog()
	log.NumLocs = 2
	log.Deps = append(log.Deps, trace.Dep{
		Loc: 1,
		W:   trace.TC{Thread: 0, Counter: 3},
		R:   trace.TC{Thread: 1, Counter: 0},
	})
	return log
}

// replicatedResidualLog builds k disjoint, structurally identical residual
// components: location i carries free write-range exclusions between its
// own pair of threads, with identical counter structure everywhere.
func replicatedResidualLog(k int) *trace.Log {
	log := &trace.Log{NumLocs: int32(k)}
	for i := 0; i < k; i++ {
		a, b := int32(2*i), int32(2*i+1)
		log.Threads = append(log.Threads, "a", "b")
		log.Ranges = append(log.Ranges,
			trace.Range{Loc: int32(i), Thread: a, Start: 1, End: 2, HasWrite: true},
			trace.Range{Loc: int32(i), Thread: b, Start: 1, End: 2, HasWrite: true},
		)
	}
	return log
}

// goldenLog decodes a committed golden recording.
func goldenLog(t *testing.T, name string) *trace.Log {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name+".lightlog"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return log
}

// TestEngineResidualFallback: the graph-first engine must route free
// disjunctions to the CDCL tier and still produce a checker-clean schedule;
// structurally identical components are each searched. fuzz-cdcl-2loc is a
// real recording whose one residual component spans two locations.
func TestEngineResidualFallback(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		log                  *trace.Log
		components, fastpath int
		disjs, resolved      int
	}{
		{"residual", residualLog(), 1, 0, 3, 0},
		{"replicated", replicatedResidualLog(4), 4, 0, 4, 0},
		{"fuzz-cdcl-2loc", goldenLog(t, "fuzz-cdcl-2loc"), 31, 30, 560, 526},
	} {
		sched, err := ComputeSchedule(tc.log)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckSchedule(tc.log, sched); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := sched.Stats
		if st.Components != tc.components || st.FastpathComponents != tc.fastpath {
			t.Fatalf("%s: components=%d fastpath=%d, want %d/%d", tc.name, st.Components, st.FastpathComponents, tc.components, tc.fastpath)
		}
		if st.Resolved != tc.resolved || st.Disjunctions != tc.disjs {
			t.Fatalf("%s: resolved=%d disjunctions=%d, want %d/%d", tc.name, st.Resolved, st.Disjunctions, tc.resolved, tc.disjs)
		}
		if want := float64(tc.fastpath) / float64(tc.components); st.FastpathRate() != want {
			t.Fatalf("%s: fastpath rate = %v, want %v", tc.name, st.FastpathRate(), want)
		}
		if st.Solver.Decisions == 0 {
			t.Fatalf("%s: CDCL(T) made no decisions", tc.name)
		}
	}
}

// TestEngineBridgedResidual: residual disjunctions whose endpoints are
// partially ordered through another cluster must get bridge seeds, and the
// merged schedule must satisfy the full system.
func TestEngineBridgedResidual(t *testing.T) {
	log := bridgedResidualLog()
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats
	if st.Components != 2 || st.FastpathComponents != 1 {
		t.Fatalf("components=%d fastpath=%d, want 2/1 (loc-1 cluster is choice-free)", st.Components, st.FastpathComponents)
	}
	if st.Resolved != 1 {
		t.Fatalf("resolved=%d, want 1 (the t0/t1 exclusion is propagation-implied)", st.Resolved)
	}
	if st.Solver.Seeded == 0 {
		t.Fatal("no seed literals reached the CDCL tier (bridges missing)")
	}
}

// TestEngineDeterminism: solving a residual log twice must give the same
// order, and each solve must search every residual component (equal,
// nonzero solver counters) rather than reuse another solve's result.
func TestEngineDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  *trace.Log
	}{
		{"residual", residualLog()},
		{"bridged", bridgedResidualLog()},
		{"replicated", replicatedResidualLog(4)},
		{"fuzz-cdcl-1loc", goldenLog(t, "fuzz-cdcl-1loc")},
		{"fuzz-cdcl-2loc", goldenLog(t, "fuzz-cdcl-2loc")},
	} {
		name, log := tc.name, tc.log
		first, err := ComputeSchedule(log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := ComputeSchedule(log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(second.Order, first.Order) {
			t.Fatalf("%s: second schedule differs from the first", name)
		}
		if first.Stats.Solver == (smt.Stats{}) {
			t.Fatalf("%s: solve never reached CDCL(T)", name)
		}
		if second.Stats.Solver != first.Stats.Solver {
			t.Fatalf("%s: solver stats %+v, then %+v", name, first.Stats.Solver, second.Stats.Solver)
		}
	}
}

// TestEngineStatsShape: auto-engine stats must keep the invariants the rest
// of the pipeline relies on (IntVars == len(Order)).
func TestEngineStatsShape(t *testing.T) {
	log := residualLog()
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.IntVars != len(sched.Order) {
		t.Fatalf("IntVars = %d, Order has %d entries", sched.Stats.IntVars, len(sched.Order))
	}
	if sched.Stats.LargestComponent != 6 {
		t.Fatalf("largest component = %d, want 6", sched.Stats.LargestComponent)
	}
}

// TestEngineUnsatLog: contradictory hard edges must surface as an error
// from propagation.
func TestEngineUnsatLog(t *testing.T) {
	// Cyclic dependences: t0:2 reads t1:1's write, t1:... with crossing
	// order that contradicts program order.
	log := &trace.Log{
		Threads: []string{"t0", "t1"},
		NumLocs: 2,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 0, Counter: 2}, R: trace.TC{Thread: 1, Counter: 1}},
			{Loc: 1, W: trace.TC{Thread: 1, Counter: 2}, R: trace.TC{Thread: 0, Counter: 1}},
		},
	}
	if _, err := ComputeSchedule(log); err == nil {
		t.Fatal("batch solve accepted a contradictory log")
	}
}
