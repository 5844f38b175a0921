package smt

// diffTheory decides conjunctions of difference constraints x - y <= k by
// maintaining a constraint graph (an edge y→x with weight k per asserted
// atom) together with a feasible potential function π (π(x) <= π(y) + k for
// every edge). Adding an edge triggers incremental relaxation; if the
// relaxation wraps around to the new edge's source, the asserted atoms on
// that path form a negative cycle — the theory conflict returned to the SAT
// core as a learned clause. Removing edges (backtracking) never invalidates
// π, since feasibility is preserved under edge deletion; π is simply kept.
type diffTheory struct {
	atoms []Atom // SAT variable -> atom
	n     int    // number of integer variables

	pi []int64

	edges []dlEdge
	adj   [][]int32 // per node: indices into edges (tails removed on pop)

	// stack has one entry per SAT trail position: the edge index added for
	// that assignment, or -1 when the edge closed a negative cycle and was
	// not installed.
	stack []int32

	// scratch state for addEdge, stamped to avoid clearing.
	tent    []int64
	parent  []int32 // edge index that last improved the node
	mark    []uint32
	stamp   uint32
	queue   []int32
	inQueue []uint32
	touched []int32
}

type dlEdge struct {
	from, to int32 // constraint to - from <= w
	w        int64
	lit      Lit
}

// reset prepares the theory for a fresh solve over nInts integer variables,
// reusing prior allocations where capacity allows.
func (d *diffTheory) reset(nInts int, atoms []Atom) {
	d.atoms = atoms
	d.n = nInts
	d.pi = resetSlice(d.pi, nInts)
	if cap(d.adj) < nInts {
		d.adj = make([][]int32, nInts)
	} else {
		d.adj = d.adj[:nInts]
		for i := range d.adj {
			d.adj[i] = d.adj[i][:0]
		}
	}
	// tent and parent are stamp-guarded, so stale values are never read;
	// they only need the right length.
	d.tent = resetSlice(d.tent, nInts)
	d.parent = resetSlice(d.parent, nInts)
	d.mark = resetSlice(d.mark, nInts)
	d.inQueue = resetSlice(d.inQueue, nInts)
	d.stamp = 0
	d.edges = d.edges[:0]
	d.stack = d.stack[:0]
	d.queue = d.queue[:0]
	d.touched = d.touched[:0]
}

// Assign installs the edge for an atom literal (every SAT variable is an
// atom); it returns a conflict core (currently-true literals forming a
// negative cycle) or nil.
func (d *diffTheory) Assign(l Lit) []Lit {
	a := d.atoms[l.Var()]
	if l.Sign() {
		a = a.negated()
	}
	// Atom x - y <= k: edge y -> x with weight k.
	e := dlEdge{from: int32(a.Y), to: int32(a.X), w: a.K, lit: l}
	idx := int32(len(d.edges))
	if core := d.checkEdge(e); core != nil {
		d.stack = append(d.stack, -1) // edge not installed
		return core
	}
	d.edges = append(d.edges, e)
	d.adj[e.from] = append(d.adj[e.from], idx)
	d.stack = append(d.stack, idx)
	return nil
}

// Shrink truncates the assignment stack to trailLen entries, removing the
// edges installed above it.
func (d *diffTheory) Shrink(trailLen int) {
	for len(d.stack) > trailLen {
		idx := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		if idx >= 0 {
			e := d.edges[idx]
			// LIFO discipline: the edge is the tail of its adjacency list.
			list := d.adj[e.from]
			d.adj[e.from] = list[:len(list)-1]
			d.edges = d.edges[:idx]
		}
	}
}

// checkEdge tests whether adding e keeps the graph free of negative cycles,
// committing the repaired potentials on success. On failure it returns the
// literals of a negative cycle and leaves π untouched.
func (d *diffTheory) checkEdge(e dlEdge) []Lit {
	if e.from == e.to {
		if e.w < 0 {
			return []Lit{e.lit} // x - x <= k with k < 0: a one-edge cycle
		}
		return nil
	}
	if d.pi[e.to] <= d.pi[e.from]+e.w {
		return nil // already feasible
	}
	d.stamp++
	stamp := d.stamp
	tentOf := func(x int32) int64 {
		if d.mark[x] == stamp {
			return d.tent[x]
		}
		return d.pi[x]
	}
	d.touched = d.touched[:0]
	setTent := func(x int32, v int64, parent int32) {
		if d.mark[x] != stamp {
			d.touched = append(d.touched, x)
		}
		d.tent[x] = v
		d.mark[x] = stamp
		d.parent[x] = parent
	}

	setTent(e.to, d.pi[e.from]+e.w, -1)
	d.queue = d.queue[:0]
	d.queue = append(d.queue, e.to)
	d.inQueue[e.to] = stamp

	for len(d.queue) > 0 {
		a := d.queue[0]
		d.queue = d.queue[1:]
		d.inQueue[a] = 0
		va := tentOf(a)
		for _, ei := range d.adj[a] {
			f := d.edges[ei]
			nv := va + f.w
			if nv < tentOf(f.to) {
				if f.to == e.from {
					// Relaxing the new edge's source: negative cycle
					// through e. Walk parents from a back to e.to.
					return d.extractCycle(e, ei, stamp)
				}
				setTent(f.to, nv, ei)
				if d.inQueue[f.to] != stamp {
					d.queue = append(d.queue, f.to)
					d.inQueue[f.to] = stamp
				}
			}
		}
	}
	// Feasible: commit tentative potentials of touched nodes.
	for _, i := range d.touched {
		d.pi[i] = d.tent[i]
	}
	return nil
}

// extractCycle collects the literals of the negative cycle closed by the new
// edge e: the parent path from node `at` (source of lastEdge, i.e. the node
// whose relaxation would wrap) back to e.to, plus lastEdge and e itself.
func (d *diffTheory) extractCycle(e dlEdge, lastEdge int32, stamp uint32) []Lit {
	lits := []Lit{e.lit, d.edges[lastEdge].lit}
	seen := map[int32]bool{}
	cur := d.edges[lastEdge].from
	for cur != e.to && !seen[cur] {
		seen[cur] = true
		if d.mark[cur] != stamp {
			break
		}
		pe := d.parent[cur]
		if pe < 0 {
			break
		}
		lits = append(lits, d.edges[pe].lit)
		cur = d.edges[pe].from
	}
	// Deduplicate (a literal can appear via both the cycle seed and path).
	out := lits[:0]
	dedup := map[Lit]bool{}
	for _, l := range lits {
		if !dedup[l] {
			dedup[l] = true
			out = append(out, l)
		}
	}
	return out
}

// model returns the integer model: the potentials themselves satisfy every
// asserted edge (π(x) <= π(y) + k for atom x - y <= k).
func (d *diffTheory) model(nVars IntVar) map[IntVar]int64 {
	m := make(map[IntVar]int64, nVars)
	for v := IntVar(0); v < nVars; v++ {
		m[v] = d.pi[v]
	}
	return m
}
