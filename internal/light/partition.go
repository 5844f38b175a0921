package light

import "repro/internal/trace"

// Schedule-constraint partitioning. Every Section 4.2 constraint the
// generator emits — dependence edges (A), non-interference disjunctions (B),
// and write-range mutual exclusion (C) — relates accesses of a single
// location, so the constraint graph decomposes into per-location clusters
// plus the per-thread program-order chains that thread through them. Two
// clusters interact only when they share a thread: the thread's chain orders
// its accesses in one cluster against its accesses in the other. That
// interaction is directional (a thread's counters only grow), so clusters
// form a DAG of thread-segments unless two clusters alternate along some
// thread timelines, which makes them one strongly connected component (SCC)
// of the cluster graph. The schedule engine (engine.go) propagates the
// whole system at once and sorts it globally, so it only needs the SCCs to
// decide which residual-bearing clusters must share one CDCL(T) search.

// partitionResidual is the schedule engine's partitioner. It clusters
// locations and finds the cluster-graph SCCs, and within each SCC it merges
// only the clusters that still carry residual (search-requiring)
// disjunctions. Choice-free clusters stay independent — the global
// propagation pass already fixed every hard relation, and the final
// schedule is a single global topological sort, so nothing is concatenated
// and cross-cluster program order needs no merge. Residual
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
	nResidual := 0
	for i := 0; i < n; i++ {
		if !residualLoc[i] {
			continue
		}
		if r := uf.find(i); !residualRoot[r] {
			residualRoot[r] = true
			nResidual++
		}
	}
	// Merging needs two residual-bearing clusters. With fewer — the common
	// case, where propagation decided everything — every cluster is its own
	// group and the cluster graph is never built.
	if nResidual >= 2 {
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

// locVarSet enumerates the variables a location's items touch without
// generating any constraints, for the dense index to number.
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

// chainEdges returns the program-order edges between consecutive accesses of
// each thread. vars must be sorted by (thread, counter) and deduplicated.
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
