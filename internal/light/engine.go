package light

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// Disjunctions that resolve this way need no solver at all. Tier 2 decides
// the residual ones location by location by construction (constructLoc, a
// topological order of each location's write blocks against the propagated
// order) and checks the union of the chosen edges with the topological sort
// the schedule needs anyway (OrderEngine.TopoOrder). Only when a
// construction fails or the sort finds a cycle does it decide every
// residual disjunction in one CDCL(T) problem over their endpoints, with
// every pair of endpoints the propagated order already orders as a unit
// clause, and sort again.
//
// synthesize is the one implementation of this pipeline; ComputeSchedule
// runs it over a whole log.
//
// Soundness of the merge (why the sorted graph is acyclic):
//   - With no chosen edges the graph is the propagated partial order, which
//     Propagate verified acyclic (a hard cycle means the recording is
//     contradictory and is reported as unsat).
//   - Constructed choices are not trusted across locations: the sort that
//     linearizes them is the check, and a cycle sends the whole residual
//     set to the search.
//   - A cycle through searched choices would alternate chosen edges with
//     order paths between residual endpoints. Each such path is a unit
//     clause of the search problem, so the cycle would contradict the
//     model the solver returned.
//
// The search is complete: the recorded execution restricted to the
// endpoints satisfies every unit clause (the propagated order holds in
// every model) and every residual disjunction (Lemma 4.1).

// denseSystem is the Section 4.2 constraint system of one item set in node
// IDs, locations in ID order: the items plus every location's hard edges,
// location li's being hard[hardAt[li]:hardAt[li+1]]. The program-order
// chain edges are implicit in the numbering. Disjunctions are generated per
// location on demand (propagateLog) and never stored.
type denseSystem struct {
	*itemSet
	hard   [][2]int32
	hardAt []int32
}

// newDenseSystem generates every location's hard edges (genLocConstraints
// with no disjunction callback), in location-ID order.
func newDenseSystem(items *itemSet) *denseSystem {
	ds := &denseSystem{itemSet: items, hard: make([][2]int32, 0, len(items.rcs))}
	n := len(ds.x.locIDs)
	ds.hardAt = make([]int32, n+1)
	edge := func(u, v int32) { ds.hard = append(ds.hard, [2]int32{u, v}) }
	for li := range ds.x.locIDs {
		ds.hardAt[li] = int32(len(ds.hard))
		rcs, wbs := ds.locItemNodes(li)
		genLocConstraints(rcs, wbs, edge, nil)
	}
	ds.hardAt[n] = int32(len(ds.hard))
	return ds
}

// chainMinIntervals is the interval count above which propagateLog runs
// the chain check on a location. The check replaces each claim's walk over
// the intervals with two binary searches and a reach query, and the
// interval pairs with a sort; over a handful of intervals the walk is as
// cheap. On the bench-solve logs, checking every location made pass 2 two
// to three times slower on jgf-crypt, jgf-sor and par-handoff, whose
// locations hold a few intervals each; above 8 it costs them nothing.
const chainMinIntervals = 8

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

// propagateLog indexes the log, generates its constraint system and
// propagates it to fixpoint in two passes. Pass 1 resolves the items to node
// IDs (collectItems) and generates every hard edge (newDenseSystem); the
// engine is sealed over them. Pass 2 generates the disjunctions and
// registers only those the hard order does not already settle. A location
// of more than chainMinIntervals intervals that the hard order chains
// (chainCheck) has all of them settled; pass 2 counts its disjunctions as
// resolved without generating them.
//
// Registering only those changes no result: propagation only ever adds
// reachability, so a disjunction the hard order implies is one a scan of
// every disjunction would drop at its turn, with no side effect, and the
// kept ones are scanned in the same relative order against the same
// evolving partial order (DESIGN.md §4d). The log must pass checkLogShape.
func propagateLog(log *trace.Log) (*propagated, error) {
	buildSpan := obs.StartSpan("build")
	ds := newDenseSystem(collectItems(log))
	x := ds.x
	p := &propagated{ds: ds, eng: smt.NewOrderEngine(x.chainSizes())}
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
	var chain chainCheck
	for li := range p.ds.x.locIDs {
		rcs, wbs := p.ds.locItemNodes(li)
		if len(wbs) > chainMinIntervals {
			if n, ok := chain.decided(rcs, wbs, p.eng); ok {
				p.nDisj += n
				p.eng.AddImplied(n)
				continue
			}
		}
		cur = int32(li)
		genLocConstraints(rcs, wbs, nil, disj)
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

// synthesize is the schedule-synthesis core over one log: generate and
// propagate the system (propagateLog), construct each location's residual
// disjunctions (constructResidual), and check the chosen edges with the
// final topological sort of the propagated order (OrderEngine.TopoOrder).
// When a construction fails or the sort finds a cycle, every residual
// disjunction is searched in one CDCL(T) problem (searchResidual) and
// sorted again. The schedule keeps the log's counter index for its replay
// gates.
func synthesize(log *trace.Log) (*Schedule, error) {
	var stats ScheduleStats
	p, err := propagateLog(log)
	if err != nil {
		return nil, err
	}
	ds, eng, out, x := p.ds, p.eng, p.out, p.ds.x

	solveSpan := obs.StartSpan("solve")
	chosen, constructed := constructResidual(p)
	solveSpan.End()
	var order []int32
	acyclic, nSearched := false, 0
	if constructed {
		order, acyclic = sortSpan(eng, chosen)
	}
	if !acyclic {
		solveSpan = obs.StartSpan("solve")
		chosen, stats.Solver, err = searchResidual(eng, out.Residual)
		solveSpan.SetItems(1)
		solveSpan.End()
		if err != nil {
			return nil, err
		}
		if order, acyclic = sortSpan(eng, chosen); !acyclic {
			return nil, fmt.Errorf("light: internal error: schedule merge produced a cycle (%d residual disjunctions searched)", len(out.Residual))
		}
		// Every location holding a residual disjunction was searched.
		searched := make([]bool, len(x.locIDs))
		for _, di := range out.Residual {
			if li := p.keptLoc[di]; !searched[li] {
				searched[li] = true
				nSearched++
			}
		}
	}

	stats.IntVars = len(x.vars)
	// Hard edges: the per-location edges plus the program-order chains.
	stats.Conjunctive = len(ds.hard)
	for _, n := range x.chainSizes() {
		stats.Conjunctive += n - 1
	}
	stats.Disjunctions = p.nDisj
	stats.Resolved = out.Resolved
	stats.Components = len(x.locIDs)
	stats.FastpathComponents = stats.Components - nSearched
	stats.LargestComponent = largestLocation(ds.itemSet)
	tcs := make([]trace.TC, len(order))
	for i, n := range order {
		tcs[i] = x.vars[n]
	}
	return &Schedule{Log: log, Order: tcs, Stats: stats, index: x}, nil
}

// largestLocation returns the most distinct nodes that one location's
// claims and intervals name. stamp[n] is one more than the last location
// that counted node n.
func largestLocation(items *itemSet) int {
	stamp := make([]int32, len(items.x.vars))
	largest := 0
	for li := range items.x.locIDs {
		mark, n := int32(li+1), 0
		count := func(v int32) {
			if v >= 0 && stamp[v] != mark {
				stamp[v] = mark
				n++
			}
		}
		rcs, wbs := items.locItemNodes(li)
		for _, rc := range rcs {
			count(rc.w)
			count(rc.lo)
			count(rc.hi)
		}
		for _, wb := range wbs {
			count(wb.lo)
			count(wb.hi)
		}
		largest = max(largest, n)
	}
	return largest
}

// sortSpan is OrderEngine.TopoOrder under the "topo" span.
func sortSpan(eng *smt.OrderEngine, chosen [][2]int32) ([]int32, bool) {
	span := obs.StartSpan("topo")
	order, ok := eng.TopoOrder(chosen)
	span.SetItems(int64(len(order)))
	span.End()
	return order, ok
}

// constructResidual runs constructLoc on every location that keeps residual
// disjunctions, against the propagated order, and returns the union of the
// chosen edges in residual order. It reports false when any construction
// fails. The residual disjunctions of one location are consecutive:
// registration goes location by location and Propagate keeps index order.
func constructResidual(p *propagated) ([][2]int32, bool) {
	res := p.out.Residual
	chosen := make([][2]int32, 0, len(res))
	for i := 0; i < len(res); {
		li := p.keptLoc[res[i]]
		var disj []smt.OrderDisjunction
		for ; i < len(res) && p.keptLoc[res[i]] == li; i++ {
			disj = append(disj, p.eng.Disjunction(res[i]))
		}
		rcs, wbs := p.ds.locItemNodes(int(li))
		c, ok := constructLoc(rcs, wbs, disj, p.eng, p.ds.x.vars)
		if !ok {
			return nil, false
		}
		chosen = append(chosen, c...)
	}
	return chosen, true
}

// blockSeg is a block's extent on one thread: its first and last node
// there.
type blockSeg struct{ thread, lo, hi int32 }

// constructLoc decides one location's residual disjunctions without search
// (DESIGN.md §4d). A block is one write-bearing interval plus the reads of
// its writes; the initial-value reads form one more. Every model keeps a
// block contiguous on the location — rule B admits no other interval
// between a write and its readers, rule C keeps intervals apart — so if any
// access of block X reaches any access of block Y in the propagated partial
// order, X precedes Y in every model. A topological order of that block
// graph then decides every residual disjunction: take the disjunct whose
// endpoints' blocks are in rank order. A range whose leading read reads W
// is glued right after W's block, since nothing may come between them.
//
// Soundness does not rest on that argument. Every disjunction endpoint sits
// in one block, block ranks respect every reach between endpoints, and
// every chosen edge goes strictly up in rank, so the chosen edges close no
// cycle with the partial order. A shape outside the model, a glue conflict,
// a cyclic block graph or a disjunction with no disjunct in rank order
// reports false, and every residual disjunction goes to CDCL(T).
func constructLoc(rcs []claimNodes, wbs []intervalNodes, disj []smt.OrderDisjunction, eng *smt.OrderEngine, vars []trace.TC) ([][2]int32, bool) {
	nb := len(wbs) + 1 // the intervals, then the initial-value block
	initial := int32(len(wbs))
	blockOf := make(map[int32]int32, 2*len(wbs)+len(rcs))
	segs := make([][]blockSeg, nb)
	addSeg := func(b, lo, hi int32) {
		t := vars[lo].Thread
		for i := range segs[b] {
			if s := &segs[b][i]; s.thread == t {
				s.lo, s.hi = min(s.lo, lo), max(s.hi, hi)
				return
			}
		}
		segs[b] = append(segs[b], blockSeg{t, lo, hi})
	}
	byLo := make([]int32, len(wbs)) // intervals in first-node order
	for i, wb := range wbs {
		byLo[i] = int32(i)
		blockOf[wb.lo], blockOf[wb.hi] = int32(i), int32(i)
		addSeg(int32(i), wb.lo, wb.hi)
	}
	slices.SortFunc(byLo, func(a, b int32) int { return cmp.Compare(wbs[a].lo, wbs[b].lo) })
	// within returns the interval holding node n, or -1. An interval spans
	// one chain, so that is ID containment.
	within := func(n int32) int32 {
		i := sort.Search(len(byLo), func(i int) bool { return wbs[byLo[i]].lo > n }) - 1
		if i >= 0 && n <= wbs[byLo[i]].hi {
			return byLo[i]
		}
		return -1
	}
	next, prev := make([]int32, nb), make([]int32, nb) // glue links, -1 none
	for b := range next {
		next[b], prev[b] = -1, -1
	}
	for _, rc := range rcs {
		src := initial
		if rc.w >= 0 {
			if src = within(rc.w); src < 0 {
				return nil, false // reads a write outside every interval
			}
			blockOf[rc.w] = src
		}
		in := within(rc.lo)
		if in < 0 || rc.hi > wbs[in].hi {
			blockOf[rc.hi] = src
			addSeg(src, rc.lo, rc.hi)
			continue
		}
		// A range's leading read: glue the range right after its source.
		if wbs[in].lo != rc.lo || next[src] >= 0 && next[src] != in || prev[in] >= 0 && prev[in] != src {
			return nil, false
		}
		next[src], prev[in] = in, src
	}

	// The block graph: X -> Y when X's first node on some thread reaches
	// Y's last node on some thread. Blocks that share a node, or interleave
	// on one thread, reach each other, so they show up as a cycle.
	succ := make([][]int32, nb)
	for x := range segs {
		for y := range segs {
			if x != y && blocksReach(eng, segs[x], segs[y]) {
				succ[x] = append(succ[x], int32(y))
			}
		}
	}

	// Units: maximal glue chains, each keyed by its smallest node.
	unitOf, posIn := make([]int32, nb), make([]int32, nb)
	var units [][]int32
	var key []int64
	placed := 0
	for b := range next {
		if prev[b] >= 0 {
			continue
		}
		u := int32(len(units))
		var members []int32
		first := int64(len(vars))
		for c := int32(b); c >= 0; c = next[c] {
			unitOf[c], posIn[c] = u, int32(len(members))
			members = append(members, c)
			for _, s := range segs[c] {
				first = min(first, int64(s.lo))
			}
		}
		units = append(units, members)
		key = append(key, first<<32|int64(u))
		placed += len(members)
	}
	if placed != nb {
		return nil, false // a glue cycle
	}

	// Kahn's sort over the units, smallest key first; an edge inside a
	// unit must follow the glue.
	indeg := make([]int32, len(units))
	for x, ys := range succ {
		for _, y := range ys {
			if unitOf[x] != unitOf[y] {
				indeg[unitOf[y]]++
			} else if posIn[x] > posIn[y] {
				return nil, false
			}
		}
	}
	var ready []int64 // keys, largest first
	push := func(u int32) {
		k := key[u]
		i, _ := slices.BinarySearchFunc(ready, k, func(a, b int64) int { return cmp.Compare(b, a) })
		ready = slices.Insert(ready, i, k)
	}
	for u := range units {
		if indeg[u] == 0 {
			push(int32(u))
		}
	}
	rank := make([]int32, nb)
	r := int32(0)
	for len(ready) > 0 {
		u := int32(ready[len(ready)-1] & (1<<32 - 1))
		ready = ready[:len(ready)-1]
		for _, b := range units[u] {
			rank[b] = r
			r++
		}
		for _, b := range units[u] {
			for _, y := range succ[b] {
				if v := unitOf[y]; v != u {
					if indeg[v]--; indeg[v] == 0 {
						push(v)
					}
				}
			}
		}
	}
	if int(r) != nb {
		return nil, false // a cycle in the block graph
	}

	chosen := make([][2]int32, len(disj))
	for i, d := range disj {
		a1, ok1 := blockOf[d.A1]
		b1, ok2 := blockOf[d.B1]
		a2, ok3 := blockOf[d.A2]
		b2, ok4 := blockOf[d.B2]
		switch {
		case !(ok1 && ok2 && ok3 && ok4):
			return nil, false
		case rank[a1] < rank[b1]:
			chosen[i] = [2]int32{d.A1, d.B1}
		case rank[a2] < rank[b2]:
			chosen[i] = [2]int32{d.A2, d.B2}
		default:
			return nil, false
		}
	}
	return chosen, true
}

// blocksReach reports whether some first node of xs reaches some last node
// of ys.
func blocksReach(eng *smt.OrderEngine, xs, ys []blockSeg) bool {
	for _, s := range xs {
		for _, t := range ys {
			if eng.Reaches(s.lo, t.hi) {
				return true
			}
		}
	}
	return false
}

// searchResidual decides the residual disjunctions in one CDCL(T) problem
// and returns, for each, the edge of the disjunct the model satisfies. The
// problem's variables are the disjunctions' endpoints in ascending node
// order; its unit clauses, seeded in that order, are every pair of
// endpoints the propagated order orders (same-thread pairs included), and
// its other clauses are the disjunctions. Deterministic: the same input
// yields the same choices on every call.
func searchResidual(eng *smt.OrderEngine, residual []int32) ([][2]int32, smt.Stats, error) {
	disj := make([]smt.OrderDisjunction, len(residual))
	eps := make([]int32, 0, 4*len(residual))
	for i, di := range residual {
		d := eng.Disjunction(di)
		disj[i] = d
		eps = append(eps, d.A1, d.B1, d.A2, d.B2)
	}
	slices.Sort(eps)
	eps = slices.Compact(eps)
	v := func(n int32) smt.IntVar {
		i, _ := slices.BinarySearch(eps, n)
		return smt.IntVar(i)
	}
	p := smt.NewProblem()
	for range eps {
		p.NewIntVar()
	}
	for i, u := range eps {
		for j, w := range eps {
			if i != j && eng.Reaches(u, w) {
				p.SeedLt(smt.IntVar(i), smt.IntVar(j))
			}
		}
	}
	for _, d := range disj {
		p.Assert(smt.Lt(v(d.A1), v(d.B1)), smt.Lt(v(d.A2), v(d.B2)))
	}
	var start time.Time
	obsOn := obs.Enabled()
	if obsOn {
		start = time.Now()
	}
	res := p.Solve()
	if obsOn {
		mSolveComponentNS.Observe(time.Since(start).Nanoseconds())
		mSolveComponentVars.Observe(int64(len(eps)))
	}
	if res.Status != smt.Sat {
		return nil, res.Stats, fmt.Errorf("light: replay constraint system unsatisfiable (residual search: %d endpoints, %d disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			len(eps), len(disj))
	}
	chosen := make([][2]int32, len(disj))
	for i, d := range disj {
		if res.Values[v(d.A1)] < res.Values[v(d.B1)] {
			chosen[i] = [2]int32{d.A1, d.B1}
		} else {
			chosen[i] = [2]int32{d.A2, d.B2}
		}
	}
	return chosen, res.Stats, nil
}

// ComputeSchedule builds the constraint system of Section 4.2 from a log,
// discharges it, and extracts the replay order. A log that names a negative
// location or a thread outside its thread table is rejected as malformed
// before any solving (checkLogShape).
func ComputeSchedule(log *trace.Log) (*Schedule, error) {
	if err := checkLogShape(log); err != nil {
		return nil, err
	}
	sched, err := synthesize(log)
	if err != nil {
		return nil, err
	}
	observeSolve(&sched.Stats)
	return sched, nil
}

// newSchedule wraps a total order over the log's gated accesses into a
// Schedule.
func newSchedule(log *trace.Log, order []trace.TC, stats ScheduleStats) *Schedule {
	return &Schedule{Log: log, Order: order, Stats: stats}
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
	mSolveFastpathComponents.Add(uint64(s.FastpathComponents))
	mSolveCDCLComponents.Add(uint64(s.Components - s.FastpathComponents))
	mSolveFastpathRate.Set(s.FastpathRate())
}
