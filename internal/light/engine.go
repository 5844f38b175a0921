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
// Components whose disjunctions all resolve need no solver at all. Tier 2
// decides the ones with residual free choices: a component on one location
// by construction (constructLoc, a topological order of its write blocks),
// any other — or one the construction does not model — with the CDCL(T)
// solver, seeded with the propagation-proved edges (smt.Problem.SeedLt)
// plus "bridge" order literals: for every pair of residual-disjunction
// endpoints already ordered by the *global* partial order, the order is
// asserted inside the component. The final schedule is a single
// deterministic topological sort of the global partial order extended with
// the chosen disjuncts.
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
//     residual-disjunction endpoints. For a searched component every such
//     segment is asserted inside the component as a bridge literal, so the
//     cycle would already be a contradiction inside the component's
//     constraint problem — impossible, since the solver returned a model of
//     it. For a constructed component every segment keeps or raises the
//     block rank and every chosen edge raises it, so no cycle closes.
//   - A cycle through chosen edges of two different components C1 and C2
//     needs global hard paths C1⇝C2 and C2⇝C1. Every hard edge is either a
//     thread chain step between timeline-consecutive accesses (exactly the
//     cluster-graph edges the partitioner uses) or intra-cluster (dependence
//     and forced edges relate accesses of one location), so var-level
//     reachability implies cluster-graph reachability: C1 and C2 would sit
//     in one cluster-graph SCC, and the partitioner merges residual-bearing
//     clusters of an SCC into one component — contradiction.

// residualComp is one tier-2 component the construction does not decide: a
// residual-disjunction-bearing cluster group that needs CDCL(T) search, in
// the node IDs of the dense index.
type residualComp struct {
	locs    []int32                // member location IDs (diagnostics)
	nodes   []int32                // member nodes, ascending
	conj    [][2]int32             // member-location hard edges + internal chains
	forced  [][2]int32             // propagation-forced edges inside the component
	bridges [][2]int32             // global-partial-order bridges between residual endpoints
	disj    []smt.OrderDisjunction // the residual disjunctions themselves
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
	es := ds.locHard(li)
	out := make([][2]trace.TC, len(es))
	for i, e := range es {
		out[i] = [2]trace.TC{v[e[0]], v[e[1]]}
	}
	return out
}

// locHard returns location li's hard edges.
func (ds *denseSystem) locHard(li int) [][2]int32 {
	return ds.hard[ds.hardAt[li]:ds.hardAt[li+1]]
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
// disjunctions into components, construct each single-location one
// (constructLoc), seed each remaining one with its bridges, and discharge
// those to CDCL(T) one after another on one reused solver. It
// also returns the propagated engine, which already holds the hard and
// forced edges, so the caller sorts by adding only the chosen ones
// (OrderEngine.TopoOrder).
func synthesize(items map[int32]*locItems) (*synthesis, *smt.OrderEngine, error) {
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

	partSpan.SetItems(int64(len(groups)))
	partSpan.End()

	// Tier 2: a single-location residual component is decided by
	// construction (constructLoc); the rest, and any the construction does
	// not model, go to CDCL(T).
	syn := &synthesis{
		vars:   x.vars,
		chosen: make([][2]int32, 0, len(out.Residual)),
	}
	stats := &syn.stats
	solveSpan := obs.StartSpan("solve")
	var comps []*residualComp
	compOfGroup := make([]int, len(groups))
	for gi := range groups {
		compOfGroup[gi] = -1
		res := residualOfGroup[gi]
		if len(res) == 0 {
			continue
		}
		if len(groups[gi]) == 1 {
			disj := make([]smt.OrderDisjunction, len(res))
			for i, di := range res {
				disj[i] = eng.Disjunction(di)
			}
			rcs, wbs := ds.locItemNodes(groups[gi][0])
			if chosen, ok := constructLoc(rcs, wbs, disj, eng, x.vars); ok {
				syn.chosen = append(syn.chosen, chosen...)
				continue
			}
		}
		compOfGroup[gi] = len(comps)
		comps = append(comps, &residualComp{})
	}

	// Assemble the CDCL(T) components. local maps a component's node to its
	// solver variable: variables are allocated in ascending node order.
	var local []smt.IntVar
	if len(comps) > 0 {
		local = make([]smt.IntVar, len(x.vars))
		for n := range x.vars {
			if ci := compOfGroup[groupOf(int32(n))]; ci >= 0 {
				c := comps[ci]
				local[n] = smt.IntVar(len(c.nodes))
				c.nodes = append(c.nodes, int32(n))
			}
		}
		for gi, ci := range compOfGroup {
			if ci < 0 {
				continue
			}
			c := comps[ci]
			for _, li := range groups[gi] {
				c.locs = append(c.locs, ds.locIDs[li])
				c.conj = append(c.conj, ds.locHard(li)...)
			}
			// The program-order chains inside the component.
			for i := 1; i < len(c.nodes); i++ {
				if u, v := c.nodes[i-1], c.nodes[i]; x.vars[u].Thread == x.vars[v].Thread {
					c.conj = append(c.conj, [2]int32{u, v})
				}
			}
			for _, di := range residualOfGroup[gi] {
				c.disj = append(c.disj, eng.Disjunction(di))
			}
		}
		// Distribute the propagation-forced edges to their components as
		// seeds.
		for _, e := range out.Forced {
			if ci := compOfGroup[groupOf(e[0])]; ci >= 0 {
				comps[ci].forced = append(comps[ci].forced, e)
			}
		}
	}
	// Bridge literals: for every cross-thread pair of a component's residual
	// endpoints already ordered by the global partial order, assert the
	// order inside the component (same-thread pairs are chain-implied).
	for _, c := range comps {
		eps := make([]int32, 0, 4*len(c.disj))
		for _, d := range c.disj {
			eps = append(eps, d.A1, d.B1, d.A2, d.B2)
		}
		slices.Sort(eps)
		eps = slices.Compact(eps)
		for _, u := range eps {
			for _, v := range eps {
				if x.vars[u].Thread != x.vars[v].Thread && eng.Reaches(u, v) {
					c.bridges = append(c.bridges, [2]int32{u, v})
				}
			}
		}
	}

	// Search the CDCL(T) components in order.
	obsOn := obs.Enabled()
	sv := smt.NewSolver()
	for _, c := range comps {
		var start time.Time
		if obsOn {
			start = time.Now()
		}
		chosen, st, err := solveResidualComp(c, local, sv)
		if obsOn {
			mSolveComponentNS.Observe(time.Since(start).Nanoseconds())
			mSolveComponentVars.Observe(int64(len(c.nodes)))
		}
		if err != nil {
			solveSpan.End()
			return nil, nil, err
		}
		syn.chosen = append(syn.chosen, chosen...)
		stats.Solver.Add(st)
	}
	solveSpan.SetItems(int64(len(comps)))
	solveSpan.End()

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
	return syn, eng, nil
}

// blockSeg is a block's extent on one thread: its first and last node
// there.
type blockSeg struct{ thread, lo, hi int32 }

// constructLoc decides a single-location residual component without search
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
// reports false, and the component goes to CDCL(T).
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

// solveResidualComp discharges one tier-2 component to the CDCL(T) solver
// and returns, for each residual disjunction, the edge of the disjunct the
// model satisfies. local maps the component's nodes to solver variables.
// Deterministic: the same component yields the same choices on every call.
func solveResidualComp(c *residualComp, local []smt.IntVar, sv *smt.Solver) ([][2]int32, smt.Stats, error) {
	p := smt.NewProblem()
	for range c.nodes {
		p.NewIntVar()
	}
	for _, e := range c.conj {
		p.AssertLt(local[e[0]], local[e[1]])
	}
	for _, e := range c.forced {
		p.SeedLt(local[e[0]], local[e[1]])
	}
	for _, e := range c.bridges {
		p.SeedLt(local[e[0]], local[e[1]])
	}
	for _, d := range c.disj {
		p.Assert(smt.Lt(local[d.A1], local[d.B1]), smt.Lt(local[d.A2], local[d.B2]))
	}
	res := sv.Solve(p)
	if res.Status != smt.Sat {
		return nil, res.Stats, fmt.Errorf("light: replay constraint system unsatisfiable (component over locations %v: %d vars, %d residual disjunctions) — this contradicts Lemma 4.1 and indicates a recording bug",
			c.locs, len(c.nodes), len(c.disj))
	}

	chosen := make([][2]int32, len(c.disj))
	for i, d := range c.disj {
		if res.Values[local[d.A1]] < res.Values[local[d.B1]] {
			chosen[i] = [2]int32{d.A1, d.B1}
		} else {
			chosen[i] = [2]int32{d.A2, d.B2}
		}
	}
	return chosen, res.Stats, nil
}

// ComputeSchedule builds the constraint system of Section 4.2 from a log,
// discharges it, and extracts the replay order.
func ComputeSchedule(log *trace.Log) (*Schedule, error) {
	syn, eng, err := synthesize(collectItems(log))
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
