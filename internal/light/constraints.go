package light

import (
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

// Schedule is the replay plan computed from a log: a total order over the
// scheduled (gated) accesses, plus the range intervals whose interiors run
// ungated between their gated endpoints.
type Schedule struct {
	Log *trace.Log

	// Order lists the gated accesses in execution order.
	Order []trace.TC

	// Pos maps a gated access to its position in Order.
	Pos map[trace.TC]int

	// RangeEnd maps a range's start access to its end counter: when the
	// gated start executes on location L, accesses of the same thread on L
	// with counters up to End run ungated (Lemma 4.3 enforcement).
	RangeEnd map[trace.TC]uint64

	// Stats captures constraint-system size and solver effort for Table 1.
	Stats ScheduleStats
}

// ScheduleStats describes the constraint system and its solution. Counts are
// aggregated across the independent constraint components (see partition.go).
type ScheduleStats struct {
	IntVars      int
	Disjunctions int
	Conjunctive  int
	Resolved     int // disjunctions decided by partial-order preprocessing

	// Components is the number of independent constraint components the
	// system split into; LargestComponent is the variable count of the
	// biggest one (the parallel solve's critical path).
	Components       int
	LargestComponent int
	// FastpathComponents counts components the graph-first engine decided
	// by propagation alone — no CDCL(T) invocation (DESIGN.md §4d). Always
	// 0 under EngineCDCL.
	FastpathComponents int
	// CacheHits/CacheMisses count component schedule cache outcomes
	// (cache.go); hits skip the CDCL search entirely.
	CacheHits   int
	CacheMisses int
	// MergeEdges counts the cluster-graph edges inside collapsed SCCs — the
	// partition-coarsening diagnostic (legacy partitioner only).
	MergeEdges int
	// ParallelSolveNS is the wall time of the per-component solve phase.
	ParallelSolveNS int64
	// SolveBusyNS is the summed per-component solve time; with SolveWorkers
	// it yields the pool utilization busy/(workers*wall) — 1.0 means no
	// worker ever idled. SolveJobs is the resolved pool size (the -solvejobs
	// setting with 0 replaced by GOMAXPROCS); SolveWorkers is the count
	// actually spun up, capped at the residual component count, so it can be
	// 0 when propagation resolved every component.
	SolveBusyNS  int64
	SolveJobs    int
	SolveWorkers int

	Solver smt.Stats
}

// FastpathRate returns the fraction of components fully decided without a
// CDCL(T) invocation, in [0, 1]; 0 when nothing was partitioned.
func (s *ScheduleStats) FastpathRate() float64 {
	if s.Components <= 0 {
		return 0
	}
	return float64(s.FastpathComponents) / float64(s.Components)
}

// WorkerUtilization returns the solve pool's busy/(workers*wall) ratio in
// [0, 1], or 0 when no worker ran (everything fastpath-resolved).
func (s *ScheduleStats) WorkerUtilization() float64 {
	workers := s.SolveWorkers
	if workers <= 0 {
		// Logs recorded before SolveWorkers existed carry only the pool
		// size; fall back so old artifacts keep decoding to sane values.
		workers = s.SolveJobs
	}
	if s.ParallelSolveNS <= 0 || workers <= 0 {
		return 0
	}
	u := float64(s.SolveBusyNS) / (float64(s.ParallelSolveNS) * float64(workers))
	if u > 1 {
		u = 1
	}
	return u
}

// DefaultSolveJobs is the worker count ComputeSchedule uses for the
// per-component solve pool: 0 (the default) means GOMAXPROCS. The cmd front
// ends set it from their -solvejobs flag. The schedule is byte-identical for
// every worker count; jobs only changes wall time.
var DefaultSolveJobs int

// readClaim is a set of reads [Lo,Hi] by one thread, all taking their value
// from write W (Section 4.2's dependences, generalized to prec/O1 runs).
type readClaim struct {
	W      trace.TC
	Thread int32
	Lo, Hi uint64
}

// writeBearing is an interval of one thread containing writes: either a
// standalone dependence-source write (Lo==Hi, singleton) or a HasWrite range
// whose interior must not be interleaved (Lemma 4.3).
type writeBearing struct {
	Thread    int32
	Lo, Hi    uint64 // Hi is the interval's final write (dependence anchor)
	Singleton bool
}

// locItems collects a location's schedule-relevant items.
type locItems struct {
	rcs []readClaim
	wbs []writeBearing
}

// ComputeSchedule builds the constraint system of Section 4.2 from a log,
// discharges it with the DefaultEngine (DefaultSolveJobs workers), and
// extracts the replay order.
func ComputeSchedule(log *trace.Log) (*Schedule, error) {
	return ComputeScheduleEngine(log, DefaultEngine, DefaultSolveJobs)
}

// ComputeScheduleJobs is ComputeSchedule with an explicit solve-worker
// count: 1 solves the components serially, higher counts solve them
// concurrently. The resulting schedule is identical either way.
func ComputeScheduleJobs(log *trace.Log, jobs int) (*Schedule, error) {
	return ComputeScheduleEngine(log, DefaultEngine, jobs)
}

// ComputeScheduleNoPreprocess solves without the partial-order preprocessing
// pass (for the ablation benchmark).
func ComputeScheduleNoPreprocess(log *trace.Log) (*Schedule, error) {
	return computeSchedule(log, false, DefaultSolveJobs)
}

// locSys is one location's contribution to the constraint system. Every
// generated constraint relates accesses of a single location, which is what
// makes the system partitionable (see partition.go).
type locSys struct {
	loc  int32
	vars []trace.TC // touched accesses, sorted, deduplicated
	conj [][2]trace.TC
	disj []disjunction
}

// system is the generated constraint system in TC form: the per-location
// breakdown plus vars, every touched access sorted by (thread, counter) —
// the global timeline, whose consecutive same-thread pairs are the
// program-order chain edges (see chain). The checker, the forensics view,
// the legacy engine and the streaming solver's per-component subsystems
// consume it; the graph-first engine builds its system straight into node
// IDs instead (engine.go).
type system struct {
	items map[int32]*locItems
	vars  []trace.TC
	locs  []*locSys
}

// buildSystem generates the Section 4.2 constraints from a log, grouped by
// location (deterministically, in location-ID order).
func buildSystem(log *trace.Log) *system {
	items := collectItems(log)
	sys := &system{items: items}
	n := 0
	for _, loc := range sortedLocIDs(items) {
		ls := buildLocSys(loc, items[loc])
		n += len(ls.vars)
		sys.locs = append(sys.locs, ls)
	}
	sys.vars = make([]trace.TC, 0, n)
	for _, ls := range sys.locs {
		sys.vars = append(sys.vars, ls.vars...)
	}
	sortTCs(sys.vars)
	sys.vars = dedupTCs(sys.vars)
	return sys
}

// chain returns the program-order edges between consecutive accesses of
// each thread — the hard edges the per-location constraints do not list.
func (s *system) chain() [][2]trace.TC { return chainEdges(s.vars) }

// has reports whether tc is a variable of the system.
func (s *system) has(tc trace.TC) bool {
	i := sort.Search(len(s.vars), func(i int) bool { return !tcLess(s.vars[i], tc) })
	return i < len(s.vars) && s.vars[i] == tc
}

// sortedLocIDs returns the item set's locations in ascending order.
func sortedLocIDs(items map[int32]*locItems) []int32 {
	locIDs := make([]int32, 0, len(items))
	for loc := range items {
		locIDs = append(locIDs, loc)
	}
	slices.Sort(locIDs)
	return locIDs
}

// claimNodes is a readClaim with its accesses resolved to node IDs; w is
// -1 for a read of the location's initial value.
type claimNodes struct{ w, lo, hi int32 }

// intervalNodes is a writeBearing interval with its endpoints resolved to
// node IDs.
type intervalNodes struct {
	thread    int32
	lo, hi    int32
	singleton bool
}

// resolveLocItems resolves one location's items to node IDs through node,
// appending to the given buffers.
func resolveLocItems(li *locItems, node func(trace.TC) int32, rcs []claimNodes, wbs []intervalNodes) ([]claimNodes, []intervalNodes) {
	for _, rc := range li.rcs {
		w := int32(-1)
		if !rc.W.IsInitial() {
			w = node(rc.W)
		}
		rcs = append(rcs, claimNodes{
			w:  w,
			lo: node(trace.TC{Thread: rc.Thread, Counter: rc.Lo}),
			hi: node(trace.TC{Thread: rc.Thread, Counter: rc.Hi}),
		})
	}
	for _, wb := range li.wbs {
		wbs = append(wbs, intervalNodes{
			thread:    wb.Thread,
			lo:        node(trace.TC{Thread: wb.Thread, Counter: wb.Lo}),
			hi:        node(trace.TC{Thread: wb.Thread, Counter: wb.Hi}),
			singleton: wb.Singleton,
		})
	}
	return rcs, wbs
}

// genLocConstraints is the one implementation of Section 4.2's generation
// rules, applied to one location's items: A, the dependence edges; B, the
// non-interference disjunctions; C, the mutual exclusion of write-bearing
// intervals. It emits hard edges u < v through edge and disjunctions
// (a1 < b1) or (a2 < b2) through disj, in a fixed order: per read claim
// its edge then its disjunctions, then the interval pairs.
//
// Node IDs must number accesses chain-major — each thread's accesses
// consecutive and ascending by counter. An interval's IDs then span one
// chain, so "this access lies inside that interval of the same thread" is
// plain ID containment, and the rules never look at counters.
func genLocConstraints(rcs []claimNodes, wbs []intervalNodes, edge func(u, v int32), disj func(a1, b1, a2, b2 int32)) {
	// A: dependence constraints.
	for _, rc := range rcs {
		if rc.w < 0 {
			// Initial-value reads precede every write to the location.
			for _, wb := range wbs {
				if wb.lo <= rc.lo && rc.hi <= wb.hi {
					continue // this range's own leading read
				}
				edge(rc.hi, wb.lo)
			}
			continue
		}
		edge(rc.w, rc.lo)
		// B: non-interference with every write-bearing interval that is
		// not the dependence's own anchor (Equation 1, generalized).
		for _, wb := range wbs {
			if wb.lo <= rc.w && rc.w <= wb.hi {
				continue // anchor interval of the source write
			}
			if wb.lo <= rc.lo && rc.hi <= wb.hi {
				continue // the claim is this range's own leading read
			}
			disj(wb.hi, rc.w, rc.hi, wb.lo)
		}
	}
	// C: mutual exclusion of write-bearing ranges. Singleton pairs are
	// pure output dependences, which the paper proves need no order.
	for i := range wbs {
		for j := i + 1; j < len(wbs); j++ {
			w1, w2 := &wbs[i], &wbs[j]
			if w1.thread == w2.thread {
				continue // program order serializes them
			}
			if w1.singleton && w2.singleton {
				continue
			}
			disj(w1.hi, w2.lo, w2.hi, w1.lo)
		}
	}
}

// buildLocSys generates one location's constraints in TC form: it numbers
// the location's own accesses by their position in its sorted variable
// list (a chain-major numbering) and maps genLocConstraints' output back.
// The output is a pure function of (loc, li), which is what lets the
// streaming solver's per-location caches stand in for a full rebuild.
func buildLocSys(loc int32, li *locItems) *locSys {
	ls := &locSys{loc: loc}
	// Per-location variable counts are tiny (a handful on average), so
	// sort+dedup beats a hash set, and binary search resolves the items.
	locVarSet(li, func(tc trace.TC) { ls.vars = append(ls.vars, tc) })
	sortTCs(ls.vars)
	ls.vars = dedupTCs(ls.vars)
	node := func(tc trace.TC) int32 {
		return int32(sort.Search(len(ls.vars), func(i int) bool { return !tcLess(ls.vars[i], tc) }))
	}
	rcs, wbs := resolveLocItems(li, node, make([]claimNodes, 0, len(li.rcs)), make([]intervalNodes, 0, len(li.wbs)))
	v := ls.vars
	genLocConstraints(rcs, wbs,
		func(a, b int32) { ls.conj = append(ls.conj, [2]trace.TC{v[a], v[b]}) },
		func(a1, b1, a2, b2 int32) {
			ls.disj = append(ls.disj, disjunction{a1: v[a1], b1: v[b1], a2: v[a2], b2: v[b2]})
		})
	return ls
}

// componentResult is one component's solved order plus its effort counters
// and solve wall time.
type componentResult struct {
	order []trace.TC
	stats ScheduleStats
	ns    int64
	err   error
}

// solveComponent encodes one component, optionally preprocesses its
// disjunctions against the component partial order, solves it on sv, and
// extracts the component-local total order. It is deterministic: the same
// component yields the same order on every call, on any worker.
func solveComponent(c *component, preprocess bool, sv *smt.Solver) ([]trace.TC, ScheduleStats, error) {
	p := smt.NewProblem()
	vars := make(map[trace.TC]smt.IntVar, len(c.vars))
	for _, tc := range c.vars {
		vars[tc] = p.IntVarNamed("")
	}
	varOf := func(tc trace.TC) smt.IntVar { return vars[tc] }

	stats := ScheduleStats{Conjunctive: len(c.conj)}
	for _, e := range c.conj {
		p.AssertLt(varOf(e[0]), varOf(e[1]))
	}

	disjuncts := c.disj
	stats.Disjunctions = len(disjuncts)
	if preprocess {
		// resolveDisjunctions compacts its input in place; work on a copy so
		// the component stays reusable.
		kept := append([]disjunction(nil), c.disj...)
		stats.Resolved = resolveDisjunctions(p, vars, nil, &kept, append([][2]trace.TC(nil), c.conj...))
		disjuncts = kept
	}
	for _, d := range disjuncts {
		p.Assert(smt.Or(smt.Lt(varOf(d.a1), varOf(d.b1)), smt.Lt(varOf(d.a2), varOf(d.b2))))
	}

	stats.IntVars = p.IntVarCount()
	res := sv.Solve(p)
	stats.Solver = res.Stats
	if res.Status != smt.Sat {
		return nil, stats, fmt.Errorf("light: replay constraint system unsatisfiable (component over locations %v: %d vars, %d disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			c.locs, stats.IntVars, stats.Disjunctions)
	}

	// Extract the component-local total order.
	type entry struct {
		tc  trace.TC
		val int64
	}
	entries := make([]entry, 0, len(vars))
	for tc, v := range vars {
		entries = append(entries, entry{tc, res.Values[v]})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.val != b.val {
			return a.val < b.val
		}
		if a.tc.Thread != b.tc.Thread {
			return a.tc.Thread < b.tc.Thread
		}
		return a.tc.Counter < b.tc.Counter
	})
	order := make([]trace.TC, len(entries))
	for i, e := range entries {
		order[i] = e.tc
	}
	return order, stats, nil
}

// solveComponentCached wraps solveComponent with the component schedule
// cache: a hit reconstructs the stored canonical order against this
// component's variable list, which is exactly what a fresh solve would
// produce (see cache.go).
func solveComponentCached(c *component, preprocess bool, sv *smt.Solver) ([]trace.TC, ScheduleStats, error) {
	key, useCache := legacyCompKey(c, preprocess)
	if useCache {
		if e, ok := schedCache.lookup(key); ok && e.order != nil {
			order := make([]trace.TC, len(e.order))
			for i, ci := range e.order {
				order[i] = c.vars[ci]
			}
			return order, ScheduleStats{
				IntVars:      len(c.vars),
				Conjunctive:  len(c.conj),
				Disjunctions: len(c.disj),
				Resolved:     e.resolved,
				CacheHits:    1,
			}, nil
		}
	}
	order, stats, err := solveComponent(c, preprocess, sv)
	if useCache && err == nil {
		stats.CacheMisses = 1
		idx := make(map[trace.TC]int32, len(c.vars))
		for i, tc := range c.vars {
			idx[tc] = int32(i)
		}
		canon := make([]int32, len(order))
		for i, tc := range order {
			canon[i] = idx[tc]
		}
		schedCache.store(key, &cacheEntry{order: canon, resolved: stats.Resolved})
	}
	return order, stats, err
}

func computeSchedule(log *trace.Log, preprocess bool, jobs int) (*Schedule, error) {
	partSpan := obs.StartSpan("partition")
	sys := buildSystem(log)
	comps, diag := partitionSystem(sys)
	partSpan.SetItems(int64(len(comps)))
	partSpan.End()

	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// The pool never spins more workers than there are components, but the
	// resolved pool size is what reports record as solve_jobs.
	workers := jobs
	if workers > len(comps) {
		workers = len(comps)
	}

	// timed wraps one component solve, recording its wall time in the
	// result (for SolveBusyNS / worker utilization) and, when metrics are
	// on, in the per-component histograms.
	obsOn := obs.Enabled()
	timed := func(res *componentResult, c *component, sv *smt.Solver) {
		start := time.Now()
		res.order, res.stats, res.err = solveComponentCached(c, preprocess, sv)
		res.ns = time.Since(start).Nanoseconds()
		if obsOn {
			mSolveComponentNS.Observe(res.ns)
			mSolveComponentVars.Observe(int64(len(c.vars)))
		}
	}

	results := make([]componentResult, len(comps))
	solveSpan := obs.StartSpan("solve")
	solveStart := time.Now()
	if workers <= 1 {
		sv := smt.NewSolver()
		for i, c := range comps {
			sv.Reset()
			timed(&results[i], c, sv)
		}
	} else {
		// Bounded worker pool: each worker owns one reusable solver and
		// claims components off a shared counter; results land in disjoint
		// slots, so the merge below is race-free and order-independent.
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
	solveSpan.SetItems(int64(len(comps)))
	solveSpan.End()

	// Deterministic merge: components arrive topologically ordered from the
	// partitioner, so concatenating their orders restores every
	// cross-component program-order edge (see partition.go).
	var stats ScheduleStats
	total := 0
	for i := range results {
		if results[i].err != nil {
			return nil, results[i].err
		}
		total += len(results[i].order)
	}
	sched := &Schedule{
		Log:      log,
		Order:    make([]trace.TC, 0, total),
		Pos:      make(map[trace.TC]int, total),
		RangeEnd: make(map[trace.TC]uint64),
	}
	for i := range results {
		r := &results[i]
		sched.Order = append(sched.Order, r.order...)
		stats.IntVars += r.stats.IntVars
		stats.Conjunctive += r.stats.Conjunctive
		stats.Disjunctions += r.stats.Disjunctions
		stats.Resolved += r.stats.Resolved
		stats.CacheHits += r.stats.CacheHits
		stats.CacheMisses += r.stats.CacheMisses
		stats.SolveBusyNS += r.ns
		stats.Solver.Add(r.stats.Solver)
		if len(comps[i].vars) > stats.LargestComponent {
			stats.LargestComponent = len(comps[i].vars)
		}
	}
	stats.Components = len(comps)
	stats.MergeEdges = diag.MergeEdges
	stats.ParallelSolveNS = solveNS
	stats.SolveJobs = jobs
	stats.SolveWorkers = workers
	sched.Stats = stats
	if obsOn {
		mSolveRuns.Inc()
		mSolveIntVars.Add(uint64(stats.IntVars))
		mSolveDisjunctions.Add(uint64(stats.Disjunctions))
		mSolveResolved.Add(uint64(stats.Resolved))
		mSolveComponents.Observe(int64(stats.Components))
		mSolveUtilization.Set(stats.WorkerUtilization())
		mSolveCacheHits.Add(uint64(stats.CacheHits))
		mSolveCacheMisses.Add(uint64(stats.CacheMisses))
		mPartitionMergeEdges.Add(uint64(stats.MergeEdges))
	}
	for i, tc := range sched.Order {
		sched.Pos[tc] = i
	}
	for _, rg := range log.Ranges {
		sched.RangeEnd[trace.TC{Thread: rg.Thread, Counter: rg.Start}] = rg.End
	}
	return sched, nil
}

type disjunction struct {
	// (a1 < b1) or (a2 < b2)
	a1, b1, a2, b2 trace.TC
}

// collectItems groups the log's deps and ranges into per-location read
// claims and write-bearing intervals.
func collectItems(log *trace.Log) map[int32]*locItems {
	return collectItemsFrom(log.Deps, log.Ranges)
}

// collectItemsFrom is collectItems over explicit dep/range slices. The
// streaming solver feeds it the concatenation of the retired threads'
// buffers in thread-ID order — the same canonical order Recorder.Finish
// serializes — so the items it produces for a location are identical to
// what the final log would yield once every contributor has retired.
func collectItemsFrom(deps []trace.Dep, ranges []trace.Range) map[int32]*locItems {
	items := make(map[int32]*locItems)
	get := func(loc int32) *locItems {
		li := items[loc]
		if li == nil {
			li = &locItems{}
			items[loc] = li
		}
		return li
	}

	// Write-bearing ranges first, so singleton detection can consult them.
	type key struct {
		th int32
		c  uint64
	}
	inRange := make(map[int32][]trace.Range) // loc -> hasWrite ranges
	for _, rg := range ranges {
		li := get(rg.Loc)
		if rg.HasWrite {
			li.wbs = append(li.wbs, writeBearing{Thread: rg.Thread, Lo: rg.Start, Hi: rg.End})
			inRange[rg.Loc] = append(inRange[rg.Loc], rg)
		}
		if rg.StartsWithRead {
			hi := rg.End
			if rg.HasWrite {
				// Only the first access is known to read W; the rest of the
				// interval is protected by the range itself.
				hi = rg.Start
			}
			li.rcs = append(li.rcs, readClaim{W: rg.W, Thread: rg.Thread, Lo: rg.Start, Hi: hi})
		}
	}

	// Every dependence source — whether referenced by an individual Dep or
	// as a Range's W — is a write the replay must schedule, so it needs a
	// write-bearing item for the non-interference pairing (unless it is the
	// last write of a HasWrite range, which already is one).
	seenW := make(map[int32]map[key]bool) // loc -> singleton writes added
	addSource := func(loc int32, w trace.TC) {
		if w.IsInitial() {
			return
		}
		for _, rg := range inRange[loc] {
			if rg.Thread == w.Thread && rg.Start <= w.Counter && w.Counter <= rg.End {
				return // contained in a write-bearing range of its thread
			}
		}
		m := seenW[loc]
		if m == nil {
			m = make(map[key]bool)
			seenW[loc] = m
		}
		k := key{w.Thread, w.Counter}
		if !m[k] {
			m[k] = true
			get(loc).wbs = append(get(loc).wbs, writeBearing{
				Thread: w.Thread, Lo: w.Counter, Hi: w.Counter, Singleton: true,
			})
		}
	}
	for _, d := range deps {
		li := get(d.Loc)
		li.rcs = append(li.rcs, readClaim{W: d.W, Thread: d.R.Thread, Lo: d.R.Counter, Hi: d.R.Counter})
		addSource(d.Loc, d.W)
	}
	for _, rg := range ranges {
		if rg.StartsWithRead {
			addSource(rg.Loc, rg.W)
		}
	}
	return items
}
