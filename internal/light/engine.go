package light

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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
// synthesize is the one implementation of this pipeline; ComputeSchedule
// runs it over a whole log.
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
// search in its thread's counters. newDenseIndex builds it from an item
// set without materializing a variable set.
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

// denseSystem is the Section 4.2 constraint system of one item set in node
// IDs, locations in ID order. Every location's items are resolved to nodes
// once: location li's read claims are rcs[rcsAt[li]:rcsAt[li+1]], its
// write-bearing intervals wbs[wbsAt[li]:wbsAt[li+1]] and its hard edges
// hard[hardAt[li]:hardAt[li+1]]. The program-order chain edges are implicit
// in the numbering. Disjunctions are generated per location on demand
// (genDisj) and never stored.
type denseSystem struct {
	locIDs []int32
	x      *denseIndex
	rcs    []claimNodes
	wbs    []intervalNodes
	hard   [][2]int32
	rcsAt  []int32
	wbsAt  []int32
	hardAt []int32
}

// newDenseSystem resolves an item set's items to the node IDs of its dense
// index x and generates every location's hard edges (genLocConstraints with
// no disjunction callback), in location-ID order.
func newDenseSystem(items map[int32]*locItems, x *denseIndex) *denseSystem {
	ds := &denseSystem{locIDs: sortedLocIDs(items), x: x}
	nrc, nwb := 0, 0
	for _, li := range items {
		nrc += len(li.rcs)
		nwb += len(li.wbs)
	}
	ds.rcs = make([]claimNodes, 0, nrc)
	ds.wbs = make([]intervalNodes, 0, nwb)
	ds.hard = make([][2]int32, 0, nrc)
	n := len(ds.locIDs)
	ds.rcsAt = make([]int32, n+1)
	ds.wbsAt = make([]int32, n+1)
	ds.hardAt = make([]int32, n+1)
	edge := func(u, v int32) { ds.hard = append(ds.hard, [2]int32{u, v}) }
	for li, loc := range ds.locIDs {
		ds.rcsAt[li], ds.wbsAt[li], ds.hardAt[li] = int32(len(ds.rcs)), int32(len(ds.wbs)), int32(len(ds.hard))
		ds.rcs, ds.wbs = resolveLocItems(items[loc], x.node, ds.rcs, ds.wbs)
		genLocConstraints(ds.rcs[ds.rcsAt[li]:], ds.wbs[ds.wbsAt[li]:], edge, nil)
	}
	ds.rcsAt[n], ds.wbsAt[n], ds.hardAt[n] = int32(len(ds.rcs)), int32(len(ds.wbs)), int32(len(ds.hard))
	return ds
}

// locItemNodes returns location li's resolved read claims and intervals.
func (ds *denseSystem) locItemNodes(li int) ([]claimNodes, []intervalNodes) {
	return ds.rcs[ds.rcsAt[li]:ds.rcsAt[li+1]], ds.wbs[ds.wbsAt[li]:ds.wbsAt[li+1]]
}

// genDisj generates location li's disjunctions (genLocConstraints with no
// edge callback), in the rules' fixed order.
func (ds *denseSystem) genDisj(li int, disj func(a1, b1, a2, b2 int32)) {
	rcs, wbs := ds.locItemNodes(li)
	genLocConstraints(rcs, wbs, nil, disj)
}

// locEdges returns location li's hard edges in TC form.
func (ds *denseSystem) locEdges(li int) [][2]trace.TC {
	v := ds.x.vars
	es := ds.hard[ds.hardAt[li]:ds.hardAt[li+1]]
	out := make([][2]trace.TC, len(es))
	for i, e := range es {
		out[i] = [2]trace.TC{v[e[0]], v[e[1]]}
	}
	return out
}

// tcDisj returns a node-ID disjunction in TC form.
func (x *denseIndex) tcDisj(d smt.OrderDisjunction) disjunction {
	v := x.vars
	return disjunction{a1: v[d.A1], b1: v[d.B1], a2: v[d.A2], b2: v[d.B2]}
}

// synthesis is the core's result over one item set, in the node IDs of its
// dense index: one chosen disjunct per residual disjunction. The schedule
// is the smallest-node-first topological sort of the propagated partial
// order (the chains, the hard edges and the forced edges) plus the chosen
// edges.
type synthesis struct {
	vars   []trace.TC // node -> access
	chosen [][2]int32
	stats  ScheduleStats
}

// propagated is an item set's constraint system after propagation: its
// dense form (hard edges only), the engine holding the hard and forced
// edges and the disjunctions the hard order did not settle, keptLoc
// mapping each of those to the location generating it, the count of every
// generated disjunction, and the propagation outcome.
type propagated struct {
	ds      *denseSystem
	eng     *smt.OrderEngine
	keptLoc []int32
	nDisj   int
	out     *smt.OrderOutcome
}

// propagateItems generates an item set's constraint system and propagates
// it to fixpoint in two passes. Pass 1 resolves the items to node IDs and
// generates every hard edge (newDenseSystem); the engine is sealed over
// them. Pass 2 generates the disjunctions and registers only those the hard
// order does not already settle.
//
// Registering only those changes no result: propagation only ever adds
// reachability, so a disjunction the hard order implies is one a scan of
// every disjunction would drop at its turn, with no side effect, and the
// kept ones are scanned in the same relative order against the same
// evolving partial order (DESIGN.md §4d).
func propagateItems(items map[int32]*locItems) (*propagated, error) {
	buildSpan := obs.StartSpan("build")
	x := newDenseIndex(items)
	p := &propagated{ds: newDenseSystem(items, x), eng: smt.NewOrderEngine(x.chainSizes())}
	for _, e := range p.ds.hard {
		p.eng.AddEdge(e[0], e[1])
	}
	p.eng.Seal() // a hard cycle drops every disjunction; Propagate reports it
	cur := int32(0)
	disj := func(a1, b1, a2, b2 int32) {
		p.nDisj++
		if p.eng.AddDisjunction(smt.OrderDisjunction{A1: a1, B1: b1, A2: a2, B2: b2}) {
			p.keptLoc = append(p.keptLoc, cur)
		}
	}
	for li := range p.ds.locIDs {
		cur = int32(li)
		p.ds.genDisj(li, disj)
	}
	buildSpan.SetItems(int64(p.nDisj))
	buildSpan.End()

	propSpan := obs.StartSpan("propagate")
	p.out = p.eng.Propagate()
	propSpan.SetItems(int64(len(p.keptLoc)))
	propSpan.End()
	if p.out.Unsat {
		return nil, fmt.Errorf("light: replay constraint system unsatisfiable (propagation over %d vars, %d disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			len(x.vars), p.nDisj)
	}
	return p, nil
}

// synthesize is the schedule-synthesis core over one item set: generate
// and propagate the system (propagateItems), partition the residual
// disjunctions into components, seed each with its bridges, and discharge
// the components to CDCL(T) on a pool of jobs workers (0 means
// GOMAXPROCS). Results land in disjoint slots, so any worker count yields
// the same synthesis. It also returns the propagated engine, which already
// holds the hard and forced edges, so the caller sorts by adding only the
// chosen ones (OrderEngine.TopoOrder).
func synthesize(items map[int32]*locItems, jobs int) (*synthesis, *smt.OrderEngine, error) {
	p, err := propagateItems(items)
	if err != nil {
		return nil, nil, err
	}
	ds, eng, out, x := p.ds, p.eng, p.out, p.ds.x
	chains := x.chainSizes()
	nLocs := len(ds.locIDs)

	partSpan := obs.StartSpan("partition")
	// owner maps a node to the first location touching it; locations that
	// share a node are unioned into one cluster.
	owner := make([]int32, len(x.vars))
	for i := range owner {
		owner[i] = -1
	}
	uf := newUnionFind(nLocs)
	own := func(li int, n int32) {
		if o := owner[n]; o < 0 {
			owner[n] = int32(li)
		} else if int(o) != li {
			uf.union(li, int(o))
		}
	}
	for li := range ds.locIDs {
		rcs, wbs := ds.locItemNodes(li)
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
	}

	// Partition: location clusters, merging only residual-bearing clusters
	// that share a cluster-graph SCC (see partition.go).
	residualLoc := make([]bool, nLocs)
	for _, di := range out.Residual {
		residualLoc[p.keptLoc[di]] = true
	}
	groups := partitionResidual(uf, owner, chains, residualLoc)

	// Group bookkeeping: per-group node counts (every location sharing a
	// node sits in its owner's cluster, hence its group) and the residual
	// disjunctions each group owns.
	groupOfLoc := make([]int32, nLocs)
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
		gi := groupOfLoc[p.keptLoc[di]]
		residualOfGroup[gi] = append(residualOfGroup[gi], di)
	}

	// Assemble the tier-2 components in TC form (their cache keys are
	// TC-structural, see cache.go).
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
		for gi, ci := range compOfGroup {
			if ci < 0 {
				continue
			}
			c := comps[ci]
			for _, li := range groups[gi] {
				c.locs = append(c.locs, ds.locIDs[li])
				c.conj = append(c.conj, ds.locEdges(li)...)
			}
			c.conj = append(c.conj, chainEdges(c.vars)...)
			for _, di := range residualOfGroup[gi] {
				c.disj = append(c.disj, x.tcDisj(eng.Disjunction(di)))
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

	// Tier 2: solve the residual components on a worker pool.
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	// The pool never spins more workers than there are residual components,
	// but the resolved pool size is what reports record as solve_jobs — a
	// fully fastpath-resolved log must not report a zero-sized pool.
	workers := min(jobs, len(comps))
	type compResult struct {
		sel   []uint8 // the chosen disjunct per residual disjunction
		stats ScheduleStats
		ns    int64
		err   error
	}
	obsOn := obs.Enabled()
	results := make([]compResult, len(comps))
	solveSpan := obs.StartSpan("solve")
	solveStart := time.Now()
	// Key every component first and solve each distinct key once: its
	// duplicates reuse the leader's selection as cache hits. Two workers
	// missing one key at once would make the hit and miss counts depend on
	// timing.
	keys := make([][32]byte, len(comps))
	useCache := DefaultSolveCache
	if useCache {
		parallelFor(workers, len(comps), func(_, i int) { keys[i], _ = residualCompKey(comps[i]) })
	}
	leader := make([]int, len(comps))
	firstOf := make(map[[32]byte]int)
	for i := range comps {
		leader[i] = i
		if useCache {
			if j, ok := firstOf[keys[i]]; ok {
				leader[i] = j
			} else {
				firstOf[keys[i]] = i
			}
		}
	}
	solvers := make([]*smt.Solver, max(workers, 1))
	parallelFor(workers, len(comps), func(w, i int) {
		if leader[i] != i {
			return
		}
		if solvers[w] == nil {
			solvers[w] = smt.NewSolver()
		}
		sv := solvers[w]
		sv.Reset()
		res, c := &results[i], comps[i]
		start := time.Now()
		res.sel, res.stats, res.err = solveResidualComp(c, keys[i], useCache, sv)
		res.ns = time.Since(start).Nanoseconds()
		if obsOn {
			mSolveComponentNS.Observe(res.ns)
			mSolveComponentVars.Observe(int64(len(c.vars)))
		}
	})
	for i, j := range leader {
		if j != i {
			results[i] = compResult{sel: results[j].sel, stats: ScheduleStats{CacheHits: 1}, err: results[j].err}
		}
	}
	solveSpan.SetItems(int64(len(comps)))
	solveSpan.End()

	syn := &synthesis{
		vars:   x.vars,
		chosen: make([][2]int32, 0, len(out.Residual)),
	}
	stats := &syn.stats
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, nil, r.err
		}
		chosen, err := chosenFromSelection(comps[i], r.sel)
		if err != nil {
			return nil, nil, err
		}
		for _, e := range chosen {
			syn.chosen = append(syn.chosen, [2]int32{x.node(e[0]), x.node(e[1])})
		}
		stats.SolveBusyNS += r.ns
		stats.CacheHits += r.stats.CacheHits
		stats.CacheMisses += r.stats.CacheMisses
		stats.Solver.Add(r.stats.Solver)
	}
	stats.IntVars = len(x.vars)
	// Hard edges: the per-location edges plus the program-order chains.
	stats.Conjunctive = len(ds.hard)
	for _, size := range chains {
		stats.Conjunctive += size - 1
	}
	stats.Disjunctions = p.nDisj
	stats.Resolved = out.Resolved
	stats.Components = len(groups)
	stats.FastpathComponents = len(groups) - len(comps)
	for _, size := range groupSize {
		stats.LargestComponent = max(stats.LargestComponent, size)
	}
	stats.ParallelSolveNS = time.Since(solveStart).Nanoseconds()
	stats.SolveJobs = jobs
	stats.SolveWorkers = workers
	return syn, eng, nil
}

// solveResidualComp discharges one tier-2 component to the CDCL(T) solver
// (or the schedule cache, under the component's key when useCache) and
// returns, for each residual disjunction, the disjunct the model satisfies
// (see chosenFromSelection). Deterministic: the same component yields the
// same choices on every call, on any worker, cached or not.
func solveResidualComp(c *residualComp, key [32]byte, useCache bool, sv *smt.Solver) ([]uint8, ScheduleStats, error) {
	var stats ScheduleStats
	if useCache {
		if sel, ok := schedCache.lookup(key); ok {
			stats.CacheHits = 1
			return sel, stats, nil
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
		if res.Values[vars[d.a1]] >= res.Values[vars[d.b1]] {
			sel[i] = 1
		}
	}
	if useCache {
		schedCache.store(key, sel)
	}
	return sel, stats, nil
}

// parallelFor calls fn(w, i) for every i in [0, n) on a pool of workers
// goroutines, w being the calling worker's index in [0, workers); it runs
// inline when workers is at most 1.
func parallelFor(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	if workers <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// chosenFromSelection maps a per-disjunction disjunct selection back to
// concrete edges.
func chosenFromSelection(c *residualComp, sel []uint8) ([][2]trace.TC, error) {
	if len(sel) != len(c.disj) {
		return nil, fmt.Errorf("light: internal error: cached selection length %d for %d disjunctions", len(sel), len(c.disj))
	}
	chosen := make([][2]trace.TC, len(c.disj))
	for i, d := range c.disj {
		if sel[i] == 0 {
			chosen[i] = [2]trace.TC{d.a1, d.b1}
		} else {
			chosen[i] = [2]trace.TC{d.a2, d.b2}
		}
	}
	return chosen, nil
}

// ComputeSchedule builds the constraint system of Section 4.2 from a log,
// discharges it with DefaultSolveJobs workers, and extracts the replay
// order.
func ComputeSchedule(log *trace.Log) (*Schedule, error) {
	return ComputeScheduleJobs(log, DefaultSolveJobs)
}

// ComputeScheduleJobs is ComputeSchedule with an explicit solve-worker
// count: 1 solves the components serially, higher counts solve them
// concurrently (0 means GOMAXPROCS). The resulting schedule is identical
// either way.
func ComputeScheduleJobs(log *trace.Log, jobs int) (*Schedule, error) {
	syn, eng, err := synthesize(collectItems(log), jobs)
	if err != nil {
		return nil, err
	}
	topoSpan := obs.StartSpan("topo")
	defer topoSpan.End()
	order, ok := eng.TopoOrder(syn.chosen)
	if !ok {
		return nil, fmt.Errorf("light: internal error: schedule merge produced a cycle (%d components, %d chosen edges)", syn.stats.Components, len(syn.chosen))
	}
	tcs := make([]trace.TC, len(order))
	for i, n := range order {
		tcs[i] = syn.vars[n]
	}
	observeSolve(&syn.stats)
	topoSpan.SetItems(int64(len(tcs)))
	return newSchedule(log, tcs, syn.stats), nil
}

// newSchedule wraps a total order into a Schedule: positions plus the
// log's range gates.
func newSchedule(log *trace.Log, order []trace.TC, stats ScheduleStats) *Schedule {
	sched := &Schedule{
		Log:      log,
		Order:    order,
		Pos:      make(map[trace.TC]int, len(order)),
		RangeEnd: make(map[trace.TC]uint64),
		Stats:    stats,
	}
	for i, tc := range order {
		sched.Pos[tc] = i
	}
	for _, rg := range log.Ranges {
		sched.RangeEnd[trace.TC{Thread: rg.Thread, Counter: rg.Start}] = rg.End
	}
	return sched
}

// observeSolve records one schedule computation in the solve metrics.
func observeSolve(s *ScheduleStats) {
	if !obs.Enabled() {
		return
	}
	mSolveRuns.Inc()
	mSolveIntVars.Add(uint64(s.IntVars))
	mSolveDisjunctions.Add(uint64(s.Disjunctions))
	mSolveResolved.Add(uint64(s.Resolved))
	mSolveComponents.Observe(int64(s.Components))
	mSolveUtilization.Set(s.WorkerUtilization())
	mSolveFastpathComponents.Add(uint64(s.FastpathComponents))
	mSolveCDCLComponents.Add(uint64(s.Components - s.FastpathComponents))
	mSolveCacheHits.Add(uint64(s.CacheHits))
	mSolveCacheMisses.Add(uint64(s.CacheMisses))
	mSolveFastpathRate.Set(s.FastpathRate())
}
