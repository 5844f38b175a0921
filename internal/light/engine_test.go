package light

import (
	"reflect"
	"testing"

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

// TestEngineResidualFallback: the graph-first engine must route free
// disjunctions to the CDCL tier and still produce a checker-clean schedule.
func TestEngineResidualFallback(t *testing.T) {
	log := residualLog()
	ResetScheduleCache()
	sched, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats
	if st.Components != 1 || st.FastpathComponents != 0 {
		t.Fatalf("components=%d fastpath=%d, want 1/0 (pure residual component)", st.Components, st.FastpathComponents)
	}
	if st.Resolved != 0 || st.Disjunctions != 3 {
		t.Fatalf("resolved=%d disjunctions=%d, want 0/3", st.Resolved, st.Disjunctions)
	}
	if st.FastpathRate() != 0 {
		t.Fatalf("fastpath rate = %v, want 0", st.FastpathRate())
	}
}

// TestEngineBridgedResidual: residual disjunctions whose endpoints are
// partially ordered through another cluster must get bridge seeds, and the
// merged schedule must satisfy the full system.
func TestEngineBridgedResidual(t *testing.T) {
	log := bridgedResidualLog()
	ResetScheduleCache()
	sched, err := ComputeScheduleJobs(log, 1)
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

// TestEngineDeterminism: the graph-first schedule must be byte-identical
// across worker counts and cache states.
func TestEngineDeterminism(t *testing.T) {
	log := bridgedResidualLog()

	defer func() { DefaultSolveCache = true }()
	DefaultSolveCache = false
	uncached, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	DefaultSolveCache = true

	ResetScheduleCache()
	for _, jobs := range []int{1, 4} {
		sched, err := ComputeScheduleJobs(log, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sched.Order, uncached.Order) {
			t.Fatalf("jobs=%d schedule differs from uncached serial schedule", jobs)
		}
	}
	// The second cached run must have hit.
	sched, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.CacheHits != 1 || sched.Stats.CacheMisses != 0 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/0 on a repeat solve", sched.Stats.CacheHits, sched.Stats.CacheMisses)
	}
	if !reflect.DeepEqual(sched.Order, uncached.Order) {
		t.Fatal("cache hit changed the schedule")
	}
}

// TestEngineStatsShape: auto-engine stats must keep the invariants the rest
// of the pipeline relies on (IntVars == len(Order), utilization in range).
func TestEngineStatsShape(t *testing.T) {
	log := residualLog()
	sched, err := ComputeScheduleJobs(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.IntVars != len(sched.Order) {
		t.Fatalf("IntVars = %d, Order has %d entries", sched.Stats.IntVars, len(sched.Order))
	}
	if u := sched.Stats.WorkerUtilization(); u < 0 || u > 1 {
		t.Fatalf("worker utilization %v outside [0,1]", u)
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
	if _, err := ComputeScheduleJobs(log, 1); err == nil {
		t.Fatal("batch solve accepted a contradictory log")
	}
}
