package light

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// residual, their endpoints ordered through the other cluster, so the
// construction must read the global propagated order.
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

// mergeCycleLog builds a log whose two residual locations are each decided
// by construction, but whose two constructions together close a cycle.
// Location 0 holds write ranges X = t0#2 and Y = t1#1, location 1 holds P =
// t1#2 and Q = t2#1, and t0#1 reads location 2 from t2#2, so the
// propagated order has Y < P (t1's program order) and Q < X (through the
// read). Neither location's exclusion is settled by that order. Each
// construction puts the block with the smaller node first: X before Y on
// location 0 and P before Q on location 1 (nodes are numbered thread by
// thread). The union closes X < Y < P < Q < X, so the merge check must
// send both locations to the search, which decides them into a model
// (Q < X and Y < P hold in every model; e.g. Y < X and Q < P).
func mergeCycleLog() *trace.Log {
	return &trace.Log{
		Threads: []string{"t0", "t1", "t2"},
		NumLocs: 3,
		Deps: []trace.Dep{
			{Loc: 2, W: trace.TC{Thread: 2, Counter: 2}, R: trace.TC{Thread: 0, Counter: 1}},
		},
		Ranges: []trace.Range{
			{Loc: 0, Thread: 0, Start: 2, End: 2, HasWrite: true},
			{Loc: 0, Thread: 1, Start: 1, End: 1, HasWrite: true},
			{Loc: 1, Thread: 1, Start: 2, End: 2, HasWrite: true},
			{Loc: 1, Thread: 2, Start: 1, End: 1, HasWrite: true},
		},
	}
}

// randomMergeCycleLog is a log randomSystemLog(rng, true, 2) built from
// seed 174505, one of 19 in 400,000 such logs whose per-location
// constructions all succeed and close a cycle in the merge. Its two
// dependences of location 0 read across threads (t3#2 reads t1#3, t0#1
// reads t2#2), and location 1's two write ranges are on t1 and t2. It is
// kept as a literal so that it outlives changes to the generator.
func randomMergeCycleLog() *trace.Log {
	return &trace.Log{
		Threads: []string{"t", "t", "t", "t"},
		NumLocs: 2,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 1, Counter: 3}, R: trace.TC{Thread: 3, Counter: 2}},
			{Loc: 0, W: trace.TC{Thread: 2, Counter: 2}, R: trace.TC{Thread: 0, Counter: 1}},
		},
		Ranges: []trace.Range{
			{Loc: 1, Thread: 1, Start: 5, End: 5, HasWrite: true},
			{Loc: 1, Thread: 2, Start: 1, End: 1, HasWrite: true},
		},
	}
}

// interiorReadLog builds a single-location log that keeps residual
// disjunctions but has a shape the construction does not model: t0:2, in
// the middle of t0's write-bearing range, reads t1's write, so the range
// is no block. Its component falls back to CDCL(T). No recorder writes
// this: the read splits a range another thread's write must not enter.
func interiorReadLog() *trace.Log {
	return &trace.Log{
		Threads: []string{"t0", "t1", "t2"},
		NumLocs: 1,
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
		},
		Ranges: []trace.Range{
			{Loc: 0, Thread: 0, Start: 1, End: 3, HasWrite: true},
			{Loc: 0, Thread: 2, Start: 1, End: 2, HasWrite: true},
		},
	}
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

// TestEngineResidualFallback: free disjunctions left by propagation must
// be decided — by construction, location by location, and by the CDCL(T)
// search when the constructed choices close a cycle — into a
// checker-clean schedule; structurally identical components are each
// decided. fuzz-cdcl-2loc is a real recording with residual disjunctions on
// two locations that share a cluster-graph cycle; each is constructed on
// its own and their union is acyclic, so no real log reaches CDCL(T).
func TestEngineResidualFallback(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		log                  *trace.Log
		components, fastpath int
		disjs, resolved      int
		cdcl                 bool
	}{
		{"residual", residualLog(), 1, 1, 3, 0, false},
		{"replicated", replicatedResidualLog(4), 4, 4, 4, 0, false},
		{"fuzz-cdcl-1loc", goldenLog(t, "fuzz-cdcl-1loc"), 38, 38, 618, 573, false},
		{"fuzz-cdcl-2loc", goldenLog(t, "fuzz-cdcl-2loc"), 32, 32, 560, 526, false},
		{"merge-cycle", mergeCycleLog(), 3, 1, 2, 0, true},
	} {
		sched, err := ComputeSchedule(tc.log)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := CheckSchedule(tc.log, sched); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := checkRules(tc.log, sched); err != nil {
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
		if tc.cdcl && st.Solver.Decisions == 0 {
			t.Fatalf("%s: CDCL(T) made no decisions", tc.name)
		}
		if !tc.cdcl && st.Solver != (smt.Stats{}) {
			t.Fatalf("%s: constructed components reached CDCL(T): %+v", tc.name, st.Solver)
		}
	}

	// A single-location shape the construction does not model falls back
	// to CDCL(T) and gets the order the search gave before the construction
	// existed. (The log is malformed, a range interrupted by a foreign
	// write, so CheckSchedule rejects that order; recorded logs have no
	// such shape, and a contradictory one is refuted by propagation before
	// the construction runs.)
	log := interiorReadLog()
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatalf("interior-read: %v", err)
	}
	if st := sched.Stats; st.Components != 1 || st.FastpathComponents != 0 || st.Solver.Decisions == 0 {
		t.Fatalf("interior-read: components=%d fastpath=%d solver %+v, want one component searched by CDCL(T)", st.Components, st.FastpathComponents, st.Solver)
	}
	want := []trace.TC{{Thread: 2, Counter: 1}, {Thread: 2, Counter: 2}, {Thread: 1, Counter: 1}, {Thread: 0, Counter: 1}, {Thread: 0, Counter: 2}, {Thread: 0, Counter: 3}}
	if !reflect.DeepEqual(sched.Order, want) {
		t.Fatalf("interior-read: order %v, want %v", sched.Order, want)
	}
}

// TestEngineBridgedResidual: residual disjunctions whose endpoints are
// partially ordered through another cluster are decided against the global
// propagated order, and the merged schedule must satisfy the full system.
// The synthetic bridged log's residual location is ordered through
// location 1. fuzz-cdcl-2loc's two residual locations share a
// cluster-graph cycle; each is constructed on its own, and the sort
// accepts the union without a CDCL(T) search.
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
	if st.Components != 2 || st.FastpathComponents != 2 {
		t.Fatalf("components=%d fastpath=%d, want 2/2 (loc-1 cluster is choice-free, loc 0 is constructed)", st.Components, st.FastpathComponents)
	}
	if st.Resolved != 1 {
		t.Fatalf("resolved=%d, want 1 (the t0/t1 exclusion is propagation-implied)", st.Resolved)
	}
	if st.Solver != (smt.Stats{}) {
		t.Fatalf("constructed component reached CDCL(T): %+v", st.Solver)
	}

	log = goldenLog(t, "fuzz-cdcl-2loc")
	if locs := residualLocs(t, log); len(locs) != 2 {
		t.Fatalf("fuzz-cdcl-2loc: residual disjunctions on locations %v, want two", locs)
	}
	sched, err = ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	if err := checkRules(log, sched); err != nil {
		t.Fatal(err)
	}
	if st := sched.Stats; st.Solver != (smt.Stats{}) || st.FastpathComponents != st.Components {
		t.Fatalf("fuzz-cdcl-2loc: fastpath %d of %d, solver %+v; want both locations constructed", st.FastpathComponents, st.Components, st.Solver)
	}
}

// residualLocs returns the locations that keep residual disjunctions after
// propagation.
func residualLocs(t *testing.T, log *trace.Log) []int32 {
	t.Helper()
	p, err := propagateLog(log)
	if err != nil {
		t.Fatal(err)
	}
	var locs []int32
	for _, di := range p.out.Residual {
		if loc := p.ds.x.locIDs[p.keptLoc[di]]; !slices.Contains(locs, loc) {
			locs = append(locs, loc)
		}
	}
	return locs
}

// TestEngineMergeCycleFallback: when every location's construction succeeds
// but the union of their choices closes a cycle, the sort that checks the
// merge rejects it, and the one CDCL(T) problem over the residual endpoints
// decides every residual disjunction into a model. Its unit clauses are the
// endpoint pairs the propagated order orders: Y < P and Q < X in the
// hand-built log.
func TestEngineMergeCycleFallback(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		log                  *trace.Log
		seeded               int64
		components, fastpath int
	}{
		{"hand-built", mergeCycleLog(), 2, 3, 1},
		{"random", randomMergeCycleLog(), 5, 2, 0},
	} {
		if locs := residualLocs(t, tc.log); len(locs) != 2 {
			t.Fatalf("%s: residual disjunctions on locations %v, want two", tc.name, locs)
		}
		p, err := propagateLog(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		chosen, ok := constructResidual(p)
		if !ok {
			t.Fatalf("%s: a location's construction fell back; the log must reach the search through the merge check", tc.name)
		}
		if _, acyclic := p.eng.TopoOrder(chosen); acyclic {
			t.Fatalf("%s: constructed choices %v close no cycle", tc.name, chosen)
		}

		sched, err := ComputeSchedule(tc.log)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckSchedule(tc.log, sched); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := checkRules(tc.log, sched); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		orderIsModel(t, tc.log, sched)
		st := sched.Stats
		if st.Solver.Decisions == 0 || st.Solver.Seeded != tc.seeded {
			t.Fatalf("%s: solver %+v, want a search seeded with %d unit clauses", tc.name, st.Solver, tc.seeded)
		}
		if st.Components != tc.components || st.FastpathComponents != tc.fastpath {
			t.Fatalf("%s: components=%d fastpath=%d, want %d/%d (both residual clusters searched)", tc.name, st.Components, st.FastpathComponents, tc.components, tc.fastpath)
		}
	}
}

// TestEngineDeterminism: solving a residual log twice must give the same
// order. Each solve must decide every residual disjunction itself rather
// than reuse another solve's result: the merge-cycle log is searched each
// time (equal, nonzero solver counters), and the others are constructed
// each time, with no CDCL(T) call.
func TestEngineDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		log  *trace.Log
		cdcl bool
	}{
		{"residual", residualLog(), false},
		{"bridged", bridgedResidualLog(), false},
		{"replicated", replicatedResidualLog(4), false},
		{"fuzz-cdcl-1loc", goldenLog(t, "fuzz-cdcl-1loc"), false},
		{"fuzz-cdcl-2loc", goldenLog(t, "fuzz-cdcl-2loc"), false},
		{"merge-cycle", mergeCycleLog(), true},
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
		for _, st := range []ScheduleStats{first.Stats, second.Stats} {
			if !tc.cdcl && (st.Solver != (smt.Stats{}) || st.FastpathComponents != st.Components) {
				t.Fatalf("%s: fastpath %d of %d components, solver %+v; want every component constructed", name, st.FastpathComponents, st.Components, st.Solver)
			}
		}
		if tc.cdcl && first.Stats.Solver == (smt.Stats{}) {
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

// randomSystemLog builds a small random log over two to four threads.
// Location 0 carries write-bearing ranges (some starting with a read),
// singleton writes and dependence reads; locations 1 and 2 carry a few more
// writes and reads, which order the threads' timelines against each other
// and so link location 0's blocks through the partial order. With
// rangeLocs 2, each range goes to location 0 or 1, so two locations can
// keep residual disjunctions whose constructions meet in the merge. Reads
// may name any write of a range, as a foreign read in the middle of a
// recorded run does. With loose set, ranges may overlap past their first
// access and reads may land inside them, so the log need not be one a
// recorder produces: the point is to reach every shape the construction
// decides or refuses.
func randomSystemLog(rng *rand.Rand, loose bool, rangeLocs int) *trace.Log {
	nt, nl, slots := 2+rng.Intn(3), 1+rng.Intn(2), 4+rng.Intn(9)
	loc := make([][]int32, nt) // thread -> counter -> location
	for t := range loc {
		loc[t] = make([]int32, slots+1)
		for c := 1; c <= slots; c++ {
			if rng.Intn(3) == 0 {
				loc[t][c] = int32(1 + rng.Intn(nl))
			}
		}
	}
	log := &trace.Log{NumLocs: int32(nl + 1)}
	for range loc {
		log.Threads = append(log.Threads, "t")
	}
	used := map[trace.TC]bool{}
	pick := func(t int, l int32) (trace.TC, bool) {
		for k := 0; k < 10; k++ {
			tc := trace.TC{Thread: int32(t), Counter: uint64(1 + rng.Intn(slots))}
			if loc[t][tc.Counter] == l && !used[tc] {
				return tc, true
			}
		}
		return trace.TC{}, false
	}
	initial := trace.TC{Thread: trace.InitialThread}
	writes := make([][]trace.TC, nl+1)
	for i := rng.Intn(8); i > 0; i-- {
		t, l := rng.Intn(nt), int32(0)
		if rangeLocs > 1 {
			l = int32(rng.Intn(rangeLocs))
		}
		start, ok := pick(t, l)
		if !ok {
			continue
		}
		end := start.Counter
		for c := end + 1; c <= uint64(slots) && rng.Intn(2) == 0; c++ {
			if loc[t][c] != l {
				continue
			}
			if used[trace.TC{Thread: int32(t), Counter: c}] {
				break
			}
			end = c
		}
		rg := trace.Range{Loc: l, Thread: int32(t), Start: start.Counter, End: end, HasWrite: rng.Intn(4) != 0}
		if !rg.HasWrite || rng.Intn(2) == 0 {
			rg.StartsWithRead, rg.W = true, initial
			if len(writes[l]) > 0 && rng.Intn(3) != 0 {
				rg.W = writes[l][rng.Intn(len(writes[l]))]
			}
		}
		if rg.HasWrite {
			// The range's final write, and perhaps an earlier one that
			// another thread reads mid-range.
			writes[l] = append(writes[l], trace.TC{Thread: int32(t), Counter: end})
			if c := start.Counter + uint64(rng.Intn(int(end-start.Counter)+1)); c < end && loc[t][c] == l {
				writes[l] = append(writes[l], trace.TC{Thread: int32(t), Counter: c})
			}
		}
		used[start] = true
		if !loose || rng.Intn(3) != 0 {
			for c := start.Counter; c <= end; c++ {
				used[trace.TC{Thread: int32(t), Counter: c}] = true
			}
		}
		log.Ranges = append(log.Ranges, rg)
	}
	for l := range writes {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			if w, ok := pick(rng.Intn(nt), int32(l)); ok {
				used[w] = true
				writes[l] = append(writes[l], w)
			}
		}
	}
	for l := range writes {
		for i := rng.Intn(5); i > 0; i-- {
			r, ok := pick(rng.Intn(nt), int32(l))
			if !ok {
				continue
			}
			w := initial
			if len(writes[l]) > 0 && rng.Intn(5) != 0 {
				w = writes[l][rng.Intn(len(writes[l]))]
			}
			if w.Thread == r.Thread {
				continue
			}
			used[r] = true
			log.Deps = append(log.Deps, trace.Dep{Loc: int32(l), W: w, R: r})
		}
	}
	return log
}

// searchWhole decides a log's whole Section 4.2 system as one CDCL(T)
// problem: every access a variable, every hard edge, chain step and
// disjunction asserted, no propagation and no partitioning.
func searchWhole(log *trace.Log) smt.Status {
	ds := buildDense(collectItems(log))
	p := smt.NewProblem()
	vars := make([]smt.IntVar, len(ds.x.vars))
	for i := range vars {
		vars[i] = p.NewIntVar()
	}
	for i := 1; i < len(vars); i++ {
		if ds.x.vars[i-1].Thread == ds.x.vars[i].Thread {
			p.AssertLt(vars[i-1], vars[i])
		}
	}
	for _, e := range ds.hard {
		p.AssertLt(vars[e[0]], vars[e[1]])
	}
	for _, d := range ds.disj {
		p.Assert(smt.Lt(vars[d.A1], vars[d.B1]), smt.Lt(vars[d.A2], vars[d.B2]))
	}
	return p.Solve().Status
}

// constructsAll reports whether every location that keeps residual
// disjunctions is decided by construction (vacuously true when none is),
// and if so whether the sort accepts the union of the chosen edges.
func constructsAll(log *trace.Log) (built, acyclic bool) {
	p, err := propagateLog(log)
	if err != nil {
		return true, true
	}
	chosen, ok := constructResidual(p)
	if !ok {
		return false, false
	}
	_, acyclic = p.eng.TopoOrder(chosen)
	return true, acyclic
}

// TestConstructionAgreesWithSearch is tier 2's differential test. On small
// random logs, ComputeSchedule — which constructs every residual location
// it can, checks the union with its sort, and otherwise searches every
// residual disjunction at once — must reach the verdict of one
// whole-system CDCL(T) search, and each schedule it returns must satisfy
// every generated constraint (checkRules). On the logs with recorder
// shapes only, no location's construction may fall back. The first series
// puts every range on location 0, the second spreads ranges over locations
// 0 and 1, so constructed choices of two locations meet in the merge.
// Enough logs of each series must be decided by construction, and enough
// of the first must reach the search (18 of 20,000 do), that the test
// cannot pass by never reaching either. Merge cycles are rarer (19 of
// 400,000 second-series logs, all loose); TestEngineMergeCycleFallback
// pins one of them.
func TestConstructionAgreesWithSearch(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, series := range []struct {
		seed      int64
		rangeLocs int
	}{{1, 1}, {2, 2}} {
		rng := rand.New(rand.NewSource(series.seed))
		constructed, searched, cycles := 0, 0, 0
		for i := 0; i < n; i++ {
			loose := i%2 == 1
			log := randomSystemLog(rng, loose, series.rangeLocs)
			sched, err := ComputeSchedule(log)
			if want := searchWhole(log); (err == nil) != (want == smt.Sat) {
				t.Fatalf("series %d log %d: ComputeSchedule error %v, whole-system search %v\n%+v", series.seed, i, err, want, log)
			}
			if err != nil {
				continue
			}
			if err := checkRules(log, sched); err != nil {
				t.Fatalf("series %d log %d: %v\n%+v", series.seed, i, err, log)
			}
			built, acyclic := constructsAll(log)
			if !loose && !built {
				t.Fatalf("series %d log %d: a location's construction fell back\n%+v", series.seed, i, log)
			}
			if built && !acyclic {
				cycles++
			}
			switch st := sched.Stats; {
			case st.Solver != (smt.Stats{}):
				searched++
			case st.Resolved < st.Disjunctions:
				constructed++
			}
		}
		t.Logf("series %d (%d range locations): of %d logs, %d constructed, %d searched, %d merge cycles", series.seed, series.rangeLocs, n, constructed, searched, cycles)
		if constructed < n/50 {
			t.Fatalf("series %d: %d of %d logs constructed, want at least %d", series.seed, constructed, n, n/50)
		}
		if series.rangeLocs == 1 && searched < n/2000 {
			t.Fatalf("series %d: %d of %d logs searched, want at least %d", series.seed, searched, n, n/2000)
		}
	}
}
