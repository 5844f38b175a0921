package light

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/smt"
	"repro/internal/trace"
)

// Two-tier graph-first schedule synthesis (DESIGN.md §4d).
//
// Tier 1 builds the difference graph of the *hard* Section 4.2 constraints —
// per-thread program-order chains plus the conjunctive dependence edges —
// over the whole system, answers reachability in O(1) via per-chain
// minimal-position vectors, and runs disjunction unit propagation to
// fixpoint (smt.OrderEngine): whenever one disjunct of a non-interference
// clause is contradicted by the partial order, the other disjunct is
// asserted and its edge inserted with incremental reachability repair.
// Propagation only ever asserts implied literals, so the resulting partial
// order holds in every model of the system.
//
// Components whose disjunctions all resolve need no solver at all; the ones
// with residual free choices (tier 2) go to the CDCL(T) solver, seeded with
// the propagation-proved edges (smt.Problem.SeedLt) plus "bridge" order
// literals: for every pair of residual-disjunction endpoints already ordered
// by the *global* partial order, the order is asserted inside the component.
// The final schedule is a single deterministic topological sort of the
// global partial order extended with the solver-chosen disjuncts.
//
// Soundness of the merge (why the extended graph is acyclic):
//   - With no chosen edges the graph is the propagated partial order, which
//     Propagate verified acyclic (a hard cycle means the recording is
//     contradictory and is reported as unsat).
//   - A cycle through chosen edges of a single component would alternate
//     chosen edges and global-reachability segments between that component's
//     residual-disjunction endpoints. Every such segment is asserted inside
//     the component as a bridge literal, so the cycle would already be a
//     contradiction inside the component's constraint problem — impossible,
//     since the solver returned a model of it.
//   - A cycle through chosen edges of two different components C1 and C2
//     needs global hard paths C1⇝C2 and C2⇝C1. Every hard edge is either a
//     thread chain step between timeline-consecutive accesses (exactly the
//     cluster-graph edges the partitioner uses) or intra-cluster (dependence
//     and forced edges relate accesses of one location), so var-level
//     reachability implies cluster-graph reachability: C1 and C2 would sit
//     in one cluster-graph SCC, and the partitioner merges residual-bearing
//     clusters of an SCC into one component — contradiction.

// Engine selects the schedule-synthesis strategy.
type Engine int

const (
	// EngineAuto is the two-tier graph-first engine: global propagation fast
	// path, residual-only CDCL(T) fallback, topological merge. The default.
	EngineAuto Engine = iota
	// EngineCDCL is the PR-1 pipeline — every component is encoded and
	// discharged to the CDCL(T) solver — kept as the differential-testing
	// baseline and selectable via the cmd front ends' -engine flag.
	EngineCDCL
	// EngineStream is the offline form of the streaming solver (stream.go):
	// it feeds the log's per-thread buffers through a StreamSolver as if
	// each thread retired in turn, then finishes. Byte-identical to
	// EngineAuto on every log; selectable for differential testing and the
	// lightfuzz stream oracle.
	EngineStream
)

// String returns the flag spelling of the engine.
func (e Engine) String() string {
	switch e {
	case EngineCDCL:
		return "cdcl"
	case EngineStream:
		return "stream"
	}
	return "auto"
}

// ParseEngine maps a -engine flag value to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "cdcl":
		return EngineCDCL, nil
	case "stream":
		return EngineStream, nil
	}
	return EngineAuto, fmt.Errorf("light: unknown engine %q (want auto, cdcl, or stream)", s)
}

// DefaultEngine is the engine ComputeSchedule uses; the cmd front ends set
// it from their -engine flag. Both engines produce schedules that satisfy
// the full Section 4.2 system (checker-verified equivalent), but the orders
// may differ textually.
var DefaultEngine = EngineAuto

// ComputeScheduleEngine computes a schedule with an explicit engine and
// solve-worker count (0 means GOMAXPROCS).
func ComputeScheduleEngine(log *trace.Log, eng Engine, jobs int) (*Schedule, error) {
	switch eng {
	case EngineCDCL:
		return computeSchedule(log, true, jobs)
	case EngineStream:
		return computeScheduleStream(log, jobs)
	}
	return computeScheduleAuto(log, jobs)
}

// residualComp is one tier-2 component: a residual-disjunction-bearing
// cluster group that needs CDCL(T) search.
type residualComp struct {
	locs    []int32       // member location IDs (diagnostics)
	vars    []trace.TC    // sorted by (thread, counter), deduplicated
	conj    [][2]trace.TC // member-location conjunctive edges + internal chains
	forced  [][2]trace.TC // propagation-forced edges inside the component
	bridges [][2]trace.TC // global-partial-order bridges between residual endpoints
	disj    []disjunction // the residual disjunctions themselves
}

// denseIndex numbers accesses chain-major — chains in ascending thread
// order, each thread's counters ascending — so node IDs equal positions in
// the (thread, counter)-sorted variable list and map 1:1 onto an
// smt.OrderEngine's layout. An access resolves to its node by one binary
// search in its thread's counters. The batch engine builds it from the
// items without materializing a variable set (newDenseIndex); the
// streaming solver indexes a TC-form subsystem's sorted variables
// (indexSorted).
type denseIndex struct {
	chainOf  map[int32]int32 // thread -> chain
	counters [][]uint64      // chain -> sorted distinct counters
	base     []int32         // chain -> first node ID
	vars     []trace.TC      // node -> access
}

func newDenseIndex(items map[int32]*locItems) *denseIndex {
	x := &denseIndex{chainOf: make(map[int32]int32)}
	var threads []int32
	for _, li := range items {
		locVarSet(li, func(tc trace.TC) {
			c, ok := x.chainOf[tc.Thread]
			if !ok {
				c = int32(len(threads))
				x.chainOf[tc.Thread] = c
				threads = append(threads, tc.Thread)
				x.counters = append(x.counters, nil)
			}
			x.counters[c] = append(x.counters[c], tc.Counter)
		})
	}
	// Lay chains out in thread order.
	perm := make([]int32, len(threads))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(threads[a], threads[b]) })
	counters := make([][]uint64, len(perm))
	n := 0
	for c, old := range perm {
		cs := x.counters[old]
		slices.Sort(cs)
		cs = slices.Compact(cs)
		counters[c] = cs
		x.chainOf[threads[old]] = int32(c)
		x.base = append(x.base, int32(n))
		n += len(cs)
	}
	x.counters = counters
	x.vars = make([]trace.TC, 0, n)
	for c, old := range perm {
		for _, ctr := range counters[c] {
			x.vars = append(x.vars, trace.TC{Thread: threads[old], Counter: ctr})
		}
	}
	return x
}

// indexSorted indexes an access list already sorted by (thread, counter)
// and deduplicated.
func indexSorted(vars []trace.TC) *denseIndex {
	x := &denseIndex{chainOf: make(map[int32]int32), vars: vars}
	for i := 0; i < len(vars); {
		j := i
		cs := []uint64(nil)
		for ; j < len(vars) && vars[j].Thread == vars[i].Thread; j++ {
			cs = append(cs, vars[j].Counter)
		}
		x.chainOf[vars[i].Thread] = int32(len(x.counters))
		x.counters = append(x.counters, cs)
		x.base = append(x.base, int32(i))
		i = j
	}
	return x
}

// node returns the ID of an access the index covers.
func (x *denseIndex) node(tc trace.TC) int32 {
	c := x.chainOf[tc.Thread]
	i, _ := slices.BinarySearch(x.counters[c], tc.Counter)
	return x.base[c] + int32(i)
}

func (x *denseIndex) chainSizes() []int {
	sizes := make([]int, len(x.counters))
	for c, cs := range x.counters {
		sizes[c] = len(cs)
	}
	return sizes
}

// computeScheduleAuto is the graph-first engine. It builds the Section 4.2
// system straight into OrderEngine node IDs: every location's items are
// resolved to nodes once, and genLocConstraints emits their edges and
// disjunctions into the engine in location-ID order — the same order the
// TC-form system lists them, so propagation derives the same Forced and
// Residual lists. Only the locations of residual-bearing components are
// regenerated in TC form, for the CDCL(T) tier and its cache keys.
func computeScheduleAuto(log *trace.Log, jobs int) (*Schedule, error) {
	partSpan := obs.StartSpan("partition")
	items := collectItems(log)
	locIDs := sortedLocIDs(items)
	x := newDenseIndex(items)
	chains := x.chainSizes()

	eng := smt.NewOrderEngine(chains)
	// owner maps a node to the first location touching it; locations that
	// share a node are unioned into one cluster (buildClusters' rule).
	owner := make([]int32, len(x.vars))
	for i := range owner {
		owner[i] = -1
	}
	uf := newUnionFind(len(locIDs))
	own := func(li int, n int32) {
		if o := owner[n]; o < 0 {
			owner[n] = int32(li)
		} else if int(o) != li {
			uf.union(li, int(o))
		}
	}
	// disjStart[li] is the index of location li's first disjunction.
	disjStart := make([]int32, len(locIDs)+1)
	nConj, nDisj := 0, int32(0)
	addEdge := func(u, v int32) {
		eng.AddEdge(u, v)
		nConj++
	}
	addDisj := func(a1, b1, a2, b2 int32) {
		eng.AddDisjunction(smt.OrderDisjunction{A1: a1, B1: b1, A2: a2, B2: b2})
		nDisj++
	}
	var rcs []claimNodes
	var wbs []intervalNodes
	for li, loc := range locIDs {
		disjStart[li] = nDisj
		rcs, wbs = resolveLocItems(items[loc], x.node, rcs[:0], wbs[:0])
		for _, rc := range rcs {
			if rc.w >= 0 {
				own(li, rc.w)
			}
			own(li, rc.lo)
			own(li, rc.hi)
		}
		for _, wb := range wbs {
			own(li, wb.lo)
			own(li, wb.hi)
		}
		genLocConstraints(rcs, wbs, addEdge, addDisj)
	}
	disjStart[len(locIDs)] = nDisj
	locOfDisj := func(di int32) int {
		return sort.Search(len(locIDs), func(li int) bool { return disjStart[li+1] > di })
	}

	out := eng.Propagate()
	if out.Unsat {
		return nil, fmt.Errorf("light: replay constraint system unsatisfiable (propagation over %d vars, %d disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			len(x.vars), nDisj)
	}

	// Partition: location clusters, merging only residual-bearing clusters
	// that share a cluster-graph SCC (see partition.go).
	residualLoc := make([]bool, len(locIDs))
	for _, di := range out.Residual {
		residualLoc[locOfDisj(di)] = true
	}
	groups := partitionResidual(uf, owner, chains, residualLoc)

	// Group bookkeeping: per-group node counts (every location sharing a
	// node sits in its owner's cluster, hence its group) and the residual
	// disjunctions each group owns.
	groupOfLoc := make([]int32, len(locIDs))
	for gi, locs := range groups {
		for _, li := range locs {
			groupOfLoc[li] = int32(gi)
		}
	}
	groupOf := func(n int32) int32 { return groupOfLoc[owner[n]] }
	groupSize := make([]int, len(groups))
	for n := range x.vars {
		groupSize[groupOf(int32(n))]++
	}
	residualOfGroup := make([][]int32, len(groups))
	for _, di := range out.Residual {
		gi := groupOfLoc[locOfDisj(di)]
		residualOfGroup[gi] = append(residualOfGroup[gi], di)
	}

	// Assemble the tier-2 components in TC form.
	var comps []*residualComp
	compOfGroup := make([]int, len(groups))
	for gi := range groups {
		compOfGroup[gi] = -1
		if len(residualOfGroup[gi]) > 0 {
			compOfGroup[gi] = len(comps)
			comps = append(comps, &residualComp{})
		}
	}
	if len(comps) > 0 {
		for n, tc := range x.vars {
			if ci := compOfGroup[groupOf(int32(n))]; ci >= 0 {
				comps[ci].vars = append(comps[ci].vars, tc)
			}
		}
		lsOf := make(map[int]*locSys)
		for gi, ci := range compOfGroup {
			if ci < 0 {
				continue
			}
			c := comps[ci]
			for _, li := range groups[gi] {
				ls := buildLocSys(locIDs[li], items[locIDs[li]])
				lsOf[li] = ls
				c.locs = append(c.locs, ls.loc)
				c.conj = append(c.conj, ls.conj...)
			}
			c.conj = append(c.conj, chainEdges(c.vars)...)
			for _, di := range residualOfGroup[gi] {
				li := locOfDisj(di)
				c.disj = append(c.disj, lsOf[li].disj[di-disjStart[li]])
			}
		}
		// Distribute the propagation-forced edges to their components as
		// seeds.
		for _, e := range out.Forced {
			if ci := compOfGroup[groupOf(e[0])]; ci >= 0 {
				c := comps[ci]
				c.forced = append(c.forced, [2]trace.TC{x.vars[e[0]], x.vars[e[1]]})
			}
		}
	}
	// Bridge literals: for every cross-thread pair of a component's residual
	// endpoints already ordered by the global partial order, assert the
	// order inside the component (same-thread pairs are chain-implied).
	for _, c := range comps {
		eps := make([]trace.TC, 0, 4*len(c.disj))
		for _, d := range c.disj {
			eps = append(eps, d.a1, d.b1, d.a2, d.b2)
		}
		sortTCs(eps)
		eps = dedupTCs(eps)
		for _, u := range eps {
			for _, v := range eps {
				if u.Thread == v.Thread {
					continue
				}
				if eng.Reaches(x.node(u), x.node(v)) {
					c.bridges = append(c.bridges, [2]trace.TC{u, v})
				}
			}
		}
	}
	partSpan.SetItems(int64(len(groups)))
	partSpan.End()

	// Tier 2: solve the residual components on a worker pool. Results land
	// in disjoint slots, so any worker count yields the same schedule.
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// The pool never spins more workers than there are residual components,
	// but the resolved pool size is what reports record as solve_jobs — a
	// fully fastpath-resolved log must not report a zero-sized pool.
	workers := jobs
	if workers > len(comps) {
		workers = len(comps)
	}
	type compResult struct {
		chosen [][2]trace.TC // one satisfied disjunct edge per residual disjunction
		stats  ScheduleStats
		ns     int64
		err    error
	}
	obsOn := obs.Enabled()
	results := make([]compResult, len(comps))
	solveSpan := obs.StartSpan("solve")
	solveStart := time.Now()
	timed := func(res *compResult, c *residualComp, sv *smt.Solver) {
		start := time.Now()
		res.chosen, res.stats, res.err = solveResidualComp(c, sv)
		res.ns = time.Since(start).Nanoseconds()
		if obsOn {
			mSolveComponentNS.Observe(res.ns)
			mSolveComponentVars.Observe(int64(len(c.vars)))
		}
	}
	if workers <= 1 {
		sv := smt.NewSolver()
		for i, c := range comps {
			sv.Reset()
			timed(&results[i], c, sv)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sv := smt.NewSolver()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(comps) {
						return
					}
					sv.Reset()
					timed(&results[i], comps[i], sv)
				}
			}()
		}
		wg.Wait()
	}
	solveNS := time.Since(solveStart).Nanoseconds()

	// Merge: one global topological sort of the propagated partial order
	// extended with the chosen disjunct edges.
	extra := make([][2]int32, 0, len(out.Residual))
	var stats ScheduleStats
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		for _, e := range r.chosen {
			extra = append(extra, [2]int32{x.node(e[0]), x.node(e[1])})
		}
		stats.SolveBusyNS += r.ns
		stats.CacheHits += r.stats.CacheHits
		stats.CacheMisses += r.stats.CacheMisses
		stats.Solver.Add(r.stats.Solver)
	}
	orderIdx, ok := eng.TopoOrder(extra)
	if !ok {
		return nil, fmt.Errorf("light: internal error: schedule merge produced a cycle (%d components, %d chosen edges)", len(comps), len(extra))
	}
	solveSpan.SetItems(int64(len(comps)))
	solveSpan.End()

	stats.IntVars = len(x.vars)
	// Hard edges: the per-location edges plus the program-order chains.
	stats.Conjunctive = nConj
	for _, size := range chains {
		stats.Conjunctive += size - 1
	}
	stats.Disjunctions = int(nDisj)
	stats.Resolved = out.Resolved
	stats.Components = len(groups)
	stats.FastpathComponents = len(groups) - len(comps)
	for _, size := range groupSize {
		if size > stats.LargestComponent {
			stats.LargestComponent = size
		}
	}
	stats.ParallelSolveNS = solveNS
	stats.SolveJobs = jobs
	stats.SolveWorkers = workers
	sched := &Schedule{
		Log:      log,
		Order:    make([]trace.TC, len(orderIdx)),
		Pos:      make(map[trace.TC]int, len(orderIdx)),
		RangeEnd: make(map[trace.TC]uint64),
		Stats:    stats,
	}
	for i, n := range orderIdx {
		sched.Order[i] = x.vars[n]
		sched.Pos[x.vars[n]] = i
	}
	for _, rg := range log.Ranges {
		sched.RangeEnd[trace.TC{Thread: rg.Thread, Counter: rg.Start}] = rg.End
	}
	if obsOn {
		mSolveRuns.Inc()
		mSolveIntVars.Add(uint64(stats.IntVars))
		mSolveDisjunctions.Add(uint64(stats.Disjunctions))
		mSolveResolved.Add(uint64(stats.Resolved))
		mSolveComponents.Observe(int64(stats.Components))
		mSolveUtilization.Set(stats.WorkerUtilization())
		mSolveFastpathComponents.Add(uint64(stats.FastpathComponents))
		mSolveCDCLComponents.Add(uint64(len(comps)))
		mSolveCacheHits.Add(uint64(stats.CacheHits))
		mSolveCacheMisses.Add(uint64(stats.CacheMisses))
		mSolveFastpathRate.Set(stats.FastpathRate())
	}
	return sched, nil
}

// solveResidualComp discharges one tier-2 component to the CDCL(T) solver
// (or the schedule cache) and returns, for each residual disjunction, the
// disjunct edge the model satisfies. Deterministic: the same component
// yields the same choices on every call, on any worker, cached or not.
func solveResidualComp(c *residualComp, sv *smt.Solver) ([][2]trace.TC, ScheduleStats, error) {
	var stats ScheduleStats
	key, useCache := residualCompKey(c)
	if useCache {
		if e, ok := schedCache.lookup(key); ok && e.sel != nil {
			chosen, cstats, err := chosenFromSelection(c, e.sel)
			cstats.CacheHits = 1
			return chosen, cstats, err
		}
		stats.CacheMisses = 1
	}

	p := smt.NewProblem()
	vars := make(map[trace.TC]smt.IntVar, len(c.vars))
	for _, tc := range c.vars {
		vars[tc] = p.IntVarNamed("")
	}
	for _, e := range c.conj {
		p.AssertLt(vars[e[0]], vars[e[1]])
	}
	for _, e := range c.forced {
		p.SeedLt(vars[e[0]], vars[e[1]])
	}
	for _, e := range c.bridges {
		p.SeedLt(vars[e[0]], vars[e[1]])
	}
	for _, d := range c.disj {
		p.Assert(smt.Or(smt.Lt(vars[d.a1], vars[d.b1]), smt.Lt(vars[d.a2], vars[d.b2])))
	}
	res := sv.Solve(p)
	stats.Solver = res.Stats
	if res.Status != smt.Sat {
		return nil, stats, fmt.Errorf("light: replay constraint system unsatisfiable (component over locations %v: %d vars, %d residual disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			c.locs, len(c.vars), len(c.disj))
	}

	sel := make([]uint8, len(c.disj))
	for i, d := range c.disj {
		if res.Values[vars[d.a1]] < res.Values[vars[d.b1]] {
			sel[i] = 0
		} else {
			sel[i] = 1
		}
	}
	if useCache {
		schedCache.store(key, &cacheEntry{sel: sel})
	}
	chosen, cstats, err := chosenFromSelection(c, sel)
	cstats.CacheHits, cstats.CacheMisses = stats.CacheHits, stats.CacheMisses
	cstats.Solver = stats.Solver
	return chosen, cstats, err
}

// chosenFromSelection maps a per-disjunction disjunct selection back to
// concrete edges.
func chosenFromSelection(c *residualComp, sel []uint8) ([][2]trace.TC, ScheduleStats, error) {
	if len(sel) != len(c.disj) {
		return nil, ScheduleStats{}, fmt.Errorf("light: internal error: cached selection length %d for %d disjunctions", len(sel), len(c.disj))
	}
	chosen := make([][2]trace.TC, len(c.disj))
	for i, d := range c.disj {
		if sel[i] == 0 {
			chosen[i] = [2]trace.TC{d.a1, d.b1}
		} else {
			chosen[i] = [2]trace.TC{d.a2, d.b2}
		}
	}
	return chosen, ScheduleStats{}, nil
}
