package light

import (
	"sort"

	"repro/internal/trace"
)

// Schedule-constraint partitioning. Every Section 4.2 constraint the
// generator emits — dependence edges (A), non-interference disjunctions (B),
// and write-range mutual exclusion (C) — relates accesses of a single
// location, so the constraint graph decomposes into per-location clusters
// plus the per-thread program-order chains that thread through them. Two
// clusters interact only when they share a thread: the thread's chain orders
// its accesses in one cluster against its accesses in the other. That
// interaction is directional (a thread's counters only grow), so clusters
// form a DAG of thread-segments unless two clusters alternate along some
// thread timelines — in which case they are merged (an SCC collapse) and
// solved as one. The resulting components can be encoded, preprocessed, and
// solved independently; the final total order is their topological
// concatenation, which restores every cross-component program-order edge at
// merge time without re-solving anything.
//
// Soundness of the concatenation merge: all A/B/C constraints are
// intra-component by construction, and each component's solved order
// satisfies them together with the component-internal program order. The
// only cross-component constraints in the original system are program-order
// chain edges, and after the SCC collapse every such edge runs from a
// component to a topological successor, so concatenating component orders in
// topological order satisfies them all. The merged order is therefore a
// model of the full Section 4.2 system — the same guarantee the monolithic
// solve provides — and it is byte-identical regardless of how many workers
// solved the components, because partitioning, per-component encoding, and
// the merge are all deterministic.

// component is one independently solvable cluster of the constraint system:
// a set of locations, the variables their constraints touch, the
// location-derived conjunctive edges plus the component-internal
// program-order chains, and the location-derived disjunctions.
type component struct {
	locs []int32
	vars []trace.TC // sorted by (thread, counter), deduplicated
	conj [][2]trace.TC
	disj []disjunction
}

// clusterGraph is the shared substrate of both partitioners: locations
// unioned when they share a variable, plus the thread-timeline adjacency
// that generates directed cluster-graph edges.
type clusterGraph struct {
	uf       *unionFind
	owner    map[trace.TC]int // variable -> owning location index
	timeline []trace.TC       // all variables sorted by (thread, counter)
}

// buildClusters groups locations that share a variable. Accesses are
// per-location, so this is normally a no-op, but it keeps the partition
// correct if a future encoding ever relates one access to two locations.
func buildClusters(sys *system) *clusterGraph {
	cg := &clusterGraph{
		uf:       newUnionFind(len(sys.locs)),
		owner:    make(map[trace.TC]int, len(sys.vars)),
		timeline: sys.vars,
	}
	for i, ls := range sys.locs {
		for _, tc := range ls.vars {
			if j, ok := cg.owner[tc]; ok {
				cg.uf.union(i, j)
			} else {
				cg.owner[tc] = i
			}
		}
	}
	return cg
}

// edges returns the cluster-graph edges against the union-find's current
// state: each consecutive same-thread timeline pair whose endpoints live in
// different clusters contributes a directed program-order edge.
func (cg *clusterGraph) edges() []compEdge {
	var edges []compEdge
	for k := 0; k+1 < len(cg.timeline); k++ {
		a, b := cg.timeline[k], cg.timeline[k+1]
		if a.Thread != b.Thread {
			continue
		}
		fa, fb := cg.uf.find(cg.owner[a]), cg.uf.find(cg.owner[b])
		if fa != fb {
			edges = append(edges, compEdge{fa, fb})
		}
	}
	return edges
}

// MergeEdge is one cluster-graph edge inside a collapsed SCC: a program-
// order step of one thread that, together with the rest of the cycle, glues
// two otherwise-independent location clusters into one solve component. The
// satellite diagnostic for the "every workload solves as one component"
// investigation: on spawn/join workloads these edges run through the ghost
// thread-handle locations (the parent's spawn-write / join-read bracketing
// every child's work).
type MergeEdge struct {
	// From and To are the accesses of the gluing program-order step.
	From, To trace.TC
	// FromLoc and ToLoc are the locations owning the two accesses.
	FromLoc, ToLoc int32
}

// PartitionDiag reports why the legacy partitioner merged clusters.
type PartitionDiag struct {
	// Clusters is the cluster count before the SCC collapse; Components the
	// count after. MergeEdges counts the cluster-graph edges that ended up
	// inside a collapsed SCC (the cycle edges responsible for the merges).
	Clusters   int
	Components int
	MergeEdges int
	// Samples holds the first few merge edges for human diagnosis.
	Samples []MergeEdge
}

// maxMergeSamples bounds the retained merge-edge examples.
const maxMergeSamples = 8

// partitionSystem splits the generated system into independent components,
// returned in a deterministic topological order (safe to concatenate). The
// diagnostic reports how much the SCC collapse coarsened the partition.
func partitionSystem(sys *system) ([]*component, *PartitionDiag) {
	diag := &PartitionDiag{}
	n := len(sys.locs)
	if n == 0 {
		return nil, diag
	}

	cg := buildClusters(sys)
	uf := cg.uf

	preRoots := make(map[int]bool)
	for i := 0; i < n; i++ {
		preRoots[uf.find(i)] = true
	}
	diag.Clusters = len(preRoots)

	// Collapse strongly connected groups: if two groups alternate along
	// thread timelines, no topological concatenation of independent solves
	// can restore program order, so they must be solved together.
	preEdges := cg.edges()
	rootBefore := make(map[int]int, n) // member -> pre-collapse root
	for i := 0; i < n; i++ {
		rootBefore[i] = uf.find(i)
	}
	for _, scc := range stronglyConnected(n, preEdges) {
		for i := 1; i < len(scc); i++ {
			uf.union(scc[0], scc[i])
		}
	}
	// Diagnostic: every pre-collapse cluster edge whose endpoints now share
	// a root crossed clusters inside an SCC — a gluing edge. Recover the
	// concrete program-order step behind each one.
	for k := 0; k+1 < len(cg.timeline); k++ {
		a, b := cg.timeline[k], cg.timeline[k+1]
		if a.Thread != b.Thread {
			continue
		}
		la, lb := cg.owner[a], cg.owner[b]
		if rootBefore[la] != rootBefore[lb] && uf.find(la) == uf.find(lb) {
			diag.MergeEdges++
			if len(diag.Samples) < maxMergeSamples {
				diag.Samples = append(diag.Samples, MergeEdge{
					From: a, To: b,
					FromLoc: sys.locs[la].loc, ToLoc: sys.locs[lb].loc,
				})
			}
		}
	}
	groupEdges := cg.edges

	// Assemble components per final root, numbering them in sorted-location
	// order for determinism.
	compOf := make(map[int]int) // root -> dense component index
	var comps []*component
	for i, ls := range sys.locs {
		root := uf.find(i)
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, &component{})
		}
		c := comps[ci]
		c.locs = append(c.locs, ls.loc)
		c.vars = append(c.vars, ls.vars...)
		c.conj = append(c.conj, ls.conj...)
		c.disj = append(c.disj, ls.disj...)
	}
	for _, c := range comps {
		sortTCs(c.vars)
		c.vars = dedupTCs(c.vars)
		c.conj = append(c.conj, chainEdges(c.vars)...)
	}

	// Order components topologically over the condensation DAG, breaking
	// ties by each component's smallest variable so the result is unique.
	indeg := make([]int, len(comps))
	succs := make([][]int, len(comps))
	seen := make(map[[2]int]bool)
	for _, e := range groupEdges() {
		from, to := compOf[e.from], compOf[e.to]
		if from == to || seen[[2]int{from, to}] {
			continue
		}
		seen[[2]int{from, to}] = true
		succs[from] = append(succs[from], to)
		indeg[to]++
	}
	h := &compHeap{comps: comps}
	for i := range comps {
		if indeg[i] == 0 {
			h.push(i)
		}
	}
	ordered := make([]*component, 0, len(comps))
	for h.len() > 0 {
		i := h.pop()
		ordered = append(ordered, comps[i])
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	// The condensation of an SCC collapse is acyclic, so every component is
	// emitted; guard against the impossible anyway rather than drop work.
	if len(ordered) != len(comps) {
		emitted := make(map[*component]bool, len(ordered))
		for _, c := range ordered {
			emitted[c] = true
		}
		for _, c := range comps {
			if !emitted[c] {
				ordered = append(ordered, c)
			}
		}
	}
	diag.Components = len(comps)
	return ordered, diag
}

// partitionResidual is the graph-first engine's partitioner. Like
// partitionSystem it clusters locations and finds the cluster-graph SCCs,
// but within each SCC it merges only the clusters that still carry residual
// (search-requiring) disjunctions. Choice-free clusters stay independent —
// the global propagation pass already fixed every hard relation, and the
// final schedule is a single global topological sort, so nothing is
// concatenated and cross-cluster program order needs no merge. Residual
// clusters that are mutually reachable must merge so the CDCL search sees
// every inter-choice constraint (see the soundness argument in engine.go).
//
// It works on the engine's dense layout: uf holds the location clusters
// (locations unioned when they share an access), owner maps each node to
// the first location touching it, and chains are the per-thread node runs,
// so consecutive nodes of one chain are consecutive timeline accesses. The
// result groups location indices; groups appear in order of their smallest
// member, which is deterministic.
func partitionResidual(uf *unionFind, owner []int32, chains []int, residualLoc []bool) [][]int {
	n := len(residualLoc)
	if n == 0 {
		return nil
	}
	// A cluster is residual-bearing when any member location generated a
	// residual disjunction.
	residualRoot := make([]bool, n)
	for i := 0; i < n; i++ {
		if residualLoc[i] {
			residualRoot[uf.find(i)] = true
		}
	}
	// Cluster-graph edges: each consecutive same-thread node pair whose
	// owners sit in different clusters is a directed program-order edge.
	var edges []compEdge
	start := 0
	for _, size := range chains {
		for k := start; k+1 < start+size; k++ {
			fa, fb := uf.find(int(owner[k])), uf.find(int(owner[k+1]))
			if fa != fb {
				edges = append(edges, compEdge{fa, fb})
			}
		}
		start += size
	}
	for _, scc := range stronglyConnected(n, edges) {
		anchor := -1
		for _, m := range scc {
			if residualRoot[uf.find(m)] {
				if anchor < 0 {
					anchor = m
				} else {
					uf.union(anchor, m)
				}
			}
		}
	}

	groupOf := make([]int, n)
	var groups [][]int
	for i := 0; i < n; i++ {
		root := uf.find(i)
		if root == i {
			groupOf[i] = len(groups)
			groups = append(groups, nil)
		}
		gi := groupOf[root]
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// locVarSet enumerates the variables a location's items touch — the
// variable set buildLocSys collects — without generating any constraints.
// The streaming partitioner clusters locations from item sets online, so
// it must know variable sharing before constraint generation is worth
// paying for.
func locVarSet(li *locItems, add func(trace.TC)) {
	for _, rc := range li.rcs {
		add(trace.TC{Thread: rc.Thread, Counter: rc.Lo})
		add(trace.TC{Thread: rc.Thread, Counter: rc.Hi})
		if !rc.W.IsInitial() {
			add(rc.W)
		}
	}
	for _, wb := range li.wbs {
		add(trace.TC{Thread: wb.Thread, Counter: wb.Lo})
		add(trace.TC{Thread: wb.Thread, Counter: wb.Hi})
	}
}

// streamPartition is the incremental union-find + SCC partitioner's round
// step: given the item set accumulated from the threads retired so far, it
// clusters locations that share a variable, derives the cluster-graph
// edges from the thread timelines (exactly clusterGraph.edges over the
// same data), collapses timeline SCCs, and returns the resulting location
// components — each a sorted set of location IDs closed under variable
// sharing and timeline cycles. The streaming solver calls it after every
// thread retirement: a component whose fingerprint stops changing is
// closed in the retirement sense (no live run can extend any of its
// clusters), and its speculative solution survives to Finish. Run on the
// final item set, the components are exactly the SCC groups the batch
// engine's partitionResidual computes, which is what makes speculative
// results reusable verbatim (see stream.go).
func streamPartition(items map[int32]*locItems) [][]int32 {
	n := len(items)
	if n == 0 {
		return nil
	}
	locIDs := make([]int32, 0, n)
	for loc := range items {
		locIDs = append(locIDs, loc)
	}
	sort.Slice(locIDs, func(i, j int) bool { return locIDs[i] < locIDs[j] })

	uf := newUnionFind(n)
	owner := make(map[trace.TC]int)
	for i, loc := range locIDs {
		i := i
		locVarSet(items[loc], func(tc trace.TC) {
			if j, ok := owner[tc]; ok {
				uf.union(i, j)
			} else {
				owner[tc] = i
			}
		})
	}
	timeline := make([]trace.TC, 0, len(owner))
	for tc := range owner {
		timeline = append(timeline, tc)
	}
	sortTCs(timeline)

	var edges []compEdge
	for k := 0; k+1 < len(timeline); k++ {
		a, b := timeline[k], timeline[k+1]
		if a.Thread != b.Thread {
			continue
		}
		fa, fb := uf.find(owner[a]), uf.find(owner[b])
		if fa != fb {
			edges = append(edges, compEdge{fa, fb})
		}
	}

	// Components: clusters first, then clusters glued by a timeline SCC.
	super := newUnionFind(n)
	for i := 0; i < n; i++ {
		super.union(i, uf.find(i))
	}
	for _, scc := range stronglyConnected(n, edges) {
		for i := 1; i < len(scc); i++ {
			super.union(scc[0], scc[i])
		}
	}
	groupOf := make(map[int]int)
	var groups [][]int32
	for i := 0; i < n; i++ {
		root := super.find(i)
		gi, ok := groupOf[root]
		if !ok {
			gi = len(groups)
			groupOf[root] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], locIDs[i])
	}
	return groups
}

// DiagnosePartition records nothing and solves nothing: it rebuilds the
// constraint system from a log and reports how the legacy partitioner's SCC
// collapse coarsened it — the cluster count before the collapse, the
// component count after, and sample gluing edges. The lightrr front end
// prints it so over-coarse partitions (e.g. ghost-handle chains serializing
// every location cluster) are visible without a debugger.
func DiagnosePartition(log *trace.Log) *PartitionDiag {
	_, diag := partitionSystem(buildSystem(log))
	return diag
}

// tcLess orders accesses by (thread, counter).
func tcLess(a, b trace.TC) bool {
	if a.Thread != b.Thread {
		return a.Thread < b.Thread
	}
	return a.Counter < b.Counter
}

// sortTCs sorts accesses by (thread, counter). Per-location variable lists
// are tiny and sorted per location on the solve path, so small inputs take
// a direct insertion sort instead of paying sort.Slice's reflection-based
// swapper; the resulting order is identical.
func sortTCs(tcs []trace.TC) {
	if len(tcs) <= 16 {
		for i := 1; i < len(tcs); i++ {
			for j := i; j > 0 && tcLess(tcs[j], tcs[j-1]); j-- {
				tcs[j], tcs[j-1] = tcs[j-1], tcs[j]
			}
		}
		return
	}
	sort.Slice(tcs, func(i, j int) bool { return tcLess(tcs[i], tcs[j]) })
}

// dedupTCs removes adjacent duplicates from a sorted slice.
func dedupTCs(tcs []trace.TC) []trace.TC {
	out := tcs[:0]
	for i, tc := range tcs {
		if i == 0 || tc != tcs[i-1] {
			out = append(out, tc)
		}
	}
	return out
}

// chainEdges returns the program-order edges between consecutive accesses of
// each thread. vars must be sorted by sortTCs and deduplicated.
func chainEdges(vars []trace.TC) [][2]trace.TC {
	var edges [][2]trace.TC
	for i := 0; i+1 < len(vars); i++ {
		if vars[i].Thread == vars[i+1].Thread {
			edges = append(edges, [2]trace.TC{vars[i], vars[i+1]})
		}
	}
	return edges
}

// compEdge is a directed edge between location groups.
type compEdge struct{ from, to int }

// unionFind is a standard disjoint-set forest with path halving.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Deterministic orientation: smaller index wins.
		if ra > rb {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

// stronglyConnected returns the strongly connected components (size >= 2, or
// any size — singletons are harmless to report) of the directed graph over
// [0, n) given by edges, using an iterative Tarjan traversal.
func stronglyConnected(n int, edges []compEdge) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		sccs    [][]int
		counter int
	)
	type frame struct {
		v, edge int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.edge == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.edge < len(adj[v]) {
				w := adj[v][f.edge]
				f.edge++
				if index[w] == unvisited {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccs
}

// compHeap is a min-heap of component indices keyed by each component's
// smallest variable, giving the topological sort a deterministic tie-break.
type compHeap struct {
	comps []*component
	heap  []int
}

func (h *compHeap) key(i int) trace.TC {
	if len(h.comps[i].vars) == 0 {
		return trace.TC{}
	}
	return h.comps[i].vars[0]
}

func (h *compHeap) less(a, b int) bool {
	ka, kb := h.key(a), h.key(b)
	if ka.Thread != kb.Thread {
		return ka.Thread < kb.Thread
	}
	if ka.Counter != kb.Counter {
		return ka.Counter < kb.Counter
	}
	return a < b
}

func (h *compHeap) len() int { return len(h.heap) }

func (h *compHeap) push(i int) {
	h.heap = append(h.heap, i)
	c := len(h.heap) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.less(h.heap[c], h.heap[p]) {
			break
		}
		h.heap[c], h.heap[p] = h.heap[p], h.heap[c]
		c = p
	}
}

func (h *compHeap) pop() int {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		best := c
		if l < len(h.heap) && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == c {
			break
		}
		h.heap[c], h.heap[best] = h.heap[best], h.heap[c]
		c = best
	}
	return top
}
