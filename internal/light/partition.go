package light

import "repro/internal/trace"

// Location clustering. Every Section 4.2 constraint the generator emits —
// dependence edges (A), non-interference disjunctions (B), and write-range
// mutual exclusion (C) — relates accesses of a single location, so the
// constraint graph decomposes into per-location clusters plus the
// per-thread program-order chains that thread through them. The schedule
// engine (engine.go) propagates the whole system at once, decides residual
// disjunctions location by location and sorts globally, so the clusters
// only describe the system's shape: ScheduleStats.Components and
// LargestComponent.

// clusterStats clusters a dense system's locations, unioning locations that
// share an access, and returns each node's cluster (the root location
// index) and the number of clusters. Nodes of one cluster share a root, so
// the caller sizes clusters by counting.
func clusterStats(ds *denseSystem) (clusterOf []int32, clusters int) {
	nLocs := len(ds.x.locIDs)
	// owner maps a node to the first location touching it; a second
	// location touching it joins the owner's cluster.
	owner := make([]int32, len(ds.x.vars))
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
	for li := range ds.x.locIDs {
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
	for li := 0; li < nLocs; li++ {
		if uf.find(li) == li {
			clusters++
		}
	}
	for n, o := range owner {
		owner[n] = int32(uf.find(int(o)))
	}
	return owner, clusters
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
