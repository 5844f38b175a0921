package smt

// Graph-first propagation engine for the strict-order fragment of the
// replay-schedule constraint systems (DESIGN.md §4d). The systems Light
// generates are mostly *hard* difference edges (program order, flow
// dependences, O1 run boundaries) plus a minority of binary non-interference
// disjunctions. An OrderEngine represents the hard part directly as a DAG
// over nodes grouped into chains (per-thread program order), answers
// reachability in O(1) via per-chain minimal-position vectors, and runs
// disjunction unit propagation to fixpoint: whenever one disjunct of a
// clause is contradicted by the current partial order the other disjunct is
// asserted and its edge inserted (with incremental reachability repair).
//
// The engine has three phases: hard edges are added, Seal builds the
// reachability index over them, and Propagate runs to fixpoint.
// Disjunctions may be added before or after Seal; after it, one with a
// disjunct the hard order already implies is counted as resolved and
// dropped on the spot, since propagation only ever adds reachability and
// would drop it at its turn anyway. On real recordings that is almost
// every disjunction, so they are never stored, and a caller that proves a
// whole group of them implied without generating them counts the group
// with AddImplied.
// Propagation only ever asserts *implied* literals, so its conclusions can
// seed a CDCL(T) search without biasing it — the soundness property the
// two-tier schedule engine in internal/light relies on.

// OrderDisjunction is a binary strict-order disjunction (A1 < B1) or
// (A2 < B2) over engine nodes.
type OrderDisjunction struct {
	A1, B1, A2, B2 int32
}

// OrderOutcome reports one Propagate pass.
type OrderOutcome struct {
	// Resolved counts disjunctions decided by propagation: either dropped
	// because one disjunct was already implied by the partial order (on
	// registration after Seal, or during the scan), or forced because one
	// disjunct was contradicted.
	Resolved int
	// Forced lists the edges asserted by unit propagation, in the
	// deterministic order they were derived. Every forced edge is implied
	// by the constraint system (it holds in every model).
	Forced [][2]int32
	// Residual lists the indices (see AddDisjunction) of kept disjunctions
	// neither implied nor unit-forced: the genuinely free choices that need
	// search.
	Residual []int32
	// Unsat is set when the hard edges contain a cycle or some disjunction
	// has both disjuncts contradicted by the partial order.
	Unsat bool
}

// OrderEngine is the incremental propagation structure. Nodes are dense
// int32 IDs assigned chain-major: chain c's nodes are the consecutive IDs
// [start(c), start(c)+size(c)), in chain order, so consecutive IDs within a
// chain carry an implicit hard edge. A zero-size engine is valid and empty.
type OrderEngine struct {
	nc     int
	starts []int32 // chain -> first node ID
	sizes  []int32
	chain  []int32 // node -> chain
	pos    []int32 // node -> position within chain

	succs [][]int32 // cross (non-chain) edges, hard + forced
	preds [][]int32

	reach  []int32 // flattened node*nc -> min reachable pos in that chain, -1 none
	sealed bool    // Seal ran: reach is valid, no more hard edges
	built  bool    // Propagate ran
	unsat  bool

	disjs   []OrderDisjunction
	dropped int // disjunctions resolved on registration (implied after Seal)
}

// NewOrderEngine creates an engine over the given chain sizes. Node IDs are
// assigned chain-major in the order given.
func NewOrderEngine(chainSizes []int) *OrderEngine {
	e := &OrderEngine{nc: len(chainSizes)}
	total := 0
	for _, s := range chainSizes {
		e.starts = append(e.starts, int32(total))
		e.sizes = append(e.sizes, int32(s))
		total += s
	}
	e.chain = make([]int32, total)
	e.pos = make([]int32, total)
	for c, s := range chainSizes {
		base := e.starts[c]
		for p := 0; p < s; p++ {
			e.chain[base+int32(p)] = int32(c)
			e.pos[base+int32(p)] = int32(p)
		}
	}
	e.succs = make([][]int32, total)
	e.preds = make([][]int32, total)
	return e
}

// Len returns the node count.
func (e *OrderEngine) Len() int { return len(e.chain) }

// Node returns the ID of position p of chain c.
func (e *OrderEngine) Node(c, p int) int32 { return e.starts[c] + int32(p) }

// AddEdge asserts the hard constraint u < v. Edges may only be added before
// Seal; forced edges discovered later are inserted internally with
// reachability repair.
func (e *OrderEngine) AddEdge(u, v int32) {
	if e.sealed {
		panic("smt: OrderEngine.AddEdge after Seal")
	}
	if u == v {
		e.unsat = true
		return
	}
	// Chain-implied edges are redundant; skip the common case cheaply.
	if e.chain[u] == e.chain[v] && e.pos[u] < e.pos[v] {
		return
	}
	e.succs[u] = append(e.succs[u], v)
	e.preds[v] = append(e.preds[v], u)
}

// Seal builds the reachability index over the hard edges, after which
// Reaches answers queries and AddEdge panics. It reports false when the
// hard edges are contradictory (a cycle); Propagate then reports Unsat.
// Propagate seals an unsealed engine itself.
func (e *OrderEngine) Seal() bool {
	if !e.sealed {
		e.sealed = true
		if !e.unsat && !e.buildReach() {
			e.unsat = true
		}
	}
	return !e.unsat
}

// AddDisjunction registers (A1 < B1) or (A2 < B2) and reports whether it
// was kept. After Seal, a disjunction with a disjunct the partial order
// already implies is resolved instead (counted in Propagate's Resolved), and
// so is every disjunction of an engine Seal found contradictory. A kept
// disjunction's index is its position among the kept ones.
func (e *OrderEngine) AddDisjunction(d OrderDisjunction) bool {
	if e.built {
		panic("smt: OrderEngine.AddDisjunction after Propagate")
	}
	if e.sealed && (e.unsat || e.Implied(d.A1, d.B1) || e.Implied(d.A2, d.B2)) {
		e.dropped++
		return false
	}
	e.disjs = append(e.disjs, d)
	return true
}

// AddImplied counts n disjunctions that the caller has shown the sealed
// hard order implies, without registering them: Propagate reports them in
// Resolved, as it does the ones AddDisjunction drops.
func (e *OrderEngine) AddImplied(n int) {
	if !e.sealed || e.built {
		panic("smt: OrderEngine.AddImplied outside Seal..Propagate")
	}
	e.dropped += n
}

// Disjunction returns the kept disjunction with index i.
func (e *OrderEngine) Disjunction(i int32) OrderDisjunction { return e.disjs[i] }

// Reaches reports whether u happens-before-or-equals v in the current
// partial order (hard edges plus every forced edge so far).
func (e *OrderEngine) Reaches(u, v int32) bool {
	if u == v {
		return true
	}
	r := e.reach[int(u)*e.nc+int(e.chain[v])]
	return r >= 0 && r <= e.pos[v]
}

// Implied reports whether the strict edge a < b holds in the partial order
// (so a == b never counts).
func (e *OrderEngine) Implied(a, b int32) bool { return a != b && e.Reaches(a, b) }

// mergeInto folds node src's reach vector into dst's, reporting change.
func (e *OrderEngine) mergeInto(dst, src int32) bool {
	dv := e.reach[int(dst)*e.nc : int(dst)*e.nc+e.nc]
	sv := e.reach[int(src)*e.nc : int(src)*e.nc+e.nc]
	changed := false
	for t := 0; t < e.nc; t++ {
		if sv[t] >= 0 && (dv[t] < 0 || sv[t] < dv[t]) {
			dv[t] = sv[t]
			changed = true
		}
	}
	return changed
}

// buildReach computes the initial reach vectors in reverse topological
// order, reporting false on a hard-edge cycle.
func (e *OrderEngine) buildReach() bool {
	n := len(e.chain)
	e.reach = make([]int32, n*e.nc)
	for i := range e.reach {
		e.reach[i] = -1
	}
	indeg := make([]int32, n)
	for u := 0; u < n; u++ {
		if s := e.chainSucc(int32(u)); s >= 0 {
			indeg[s]++
		}
		for _, v := range e.succs[u] {
			indeg[v]++
		}
	}
	queue := make([]int32, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, int32(u))
		}
	}
	topo := make([]int32, 0, n)
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		topo = append(topo, u)
		visit := func(v int32) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		if s := e.chainSucc(u); s >= 0 {
			visit(s)
		}
		for _, v := range e.succs[u] {
			visit(v)
		}
	}
	if len(topo) != n {
		return false // hard cycle
	}
	for k := len(topo) - 1; k >= 0; k-- {
		u := topo[k]
		e.reach[int(u)*e.nc+int(e.chain[u])] = e.pos[u] // reaches itself
		if s := e.chainSucc(u); s >= 0 {
			e.mergeInto(u, s)
		}
		for _, v := range e.succs[u] {
			e.mergeInto(u, v)
		}
	}
	return true
}

// chainSucc returns u's implicit chain successor, or -1 at a chain end.
func (e *OrderEngine) chainSucc(u int32) int32 {
	c := e.chain[u]
	if e.pos[u]+1 < e.sizes[c] {
		return u + 1
	}
	return -1
}

// chainPred returns u's implicit chain predecessor, or -1 at a chain head.
func (e *OrderEngine) chainPred(u int32) int32 {
	if e.pos[u] > 0 {
		return u - 1
	}
	return -1
}

// insertEdge adds u < v to the partial order with incremental reachability
// repair: v's vector is folded into u's and the improvement is propagated
// backward through predecessors until fixpoint. Reports false on a cycle.
func (e *OrderEngine) insertEdge(u, v int32) bool {
	if e.Reaches(v, u) {
		return false
	}
	e.succs[u] = append(e.succs[u], v)
	e.preds[v] = append(e.preds[v], u)
	if !e.mergeInto(u, v) {
		return true
	}
	work := []int32{u}
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if p := e.chainPred(x); p >= 0 && e.mergeInto(p, x) {
			work = append(work, p)
		}
		for _, p := range e.preds[x] {
			if e.mergeInto(p, x) {
				work = append(work, p)
			}
		}
	}
	return true
}

// Propagate runs disjunction unit propagation to fixpoint over the kept
// disjunctions, in index order, sealing the engine first if needed. It must
// be called exactly once; afterwards the engine answers Reaches queries
// against the propagated partial order and can produce a TopoOrder.
func (e *OrderEngine) Propagate() *OrderOutcome {
	if e.built {
		panic("smt: OrderEngine.Propagate called twice")
	}
	e.built = true
	out := &OrderOutcome{Resolved: e.dropped}
	if !e.Seal() {
		out.Unsat = true
		return out
	}

	active := make([]int32, 0, len(e.disjs))
	for i := range e.disjs {
		active = append(active, int32(i))
	}
	// impossible: the disjunct's reverse holds.
	impossible := func(a, b int32) bool { return e.Reaches(b, a) }
	for {
		changed := false
		kept := active[:0]
		for _, di := range active {
			d := e.disjs[di]
			switch {
			case e.Implied(d.A1, d.B1) || e.Implied(d.A2, d.B2):
				out.Resolved++
				changed = true
			case impossible(d.A1, d.B1) && impossible(d.A2, d.B2):
				out.Unsat = true
				e.unsat = true
				return out
			case impossible(d.A1, d.B1):
				if !e.insertEdge(d.A2, d.B2) {
					out.Unsat = true
					e.unsat = true
					return out
				}
				out.Forced = append(out.Forced, [2]int32{d.A2, d.B2})
				out.Resolved++
				changed = true
			case impossible(d.A2, d.B2):
				if !e.insertEdge(d.A1, d.B1) {
					out.Unsat = true
					e.unsat = true
					return out
				}
				out.Forced = append(out.Forced, [2]int32{d.A1, d.B1})
				out.Resolved++
				changed = true
			default:
				kept = append(kept, di)
			}
		}
		active = kept
		if !changed {
			break
		}
	}
	out.Residual = append([]int32(nil), active...)
	return out
}

// TopoOrder returns a deterministic topological order (smallest node ID
// first among ready nodes) of the partial order extended with the extra
// edges — the chosen disjuncts of the residual disjunctions. It reports
// false when the extended graph is cyclic, which is how the schedule engine
// checks choices made location by location (see the merge soundness
// argument in internal/light/engine.go).
func (e *OrderEngine) TopoOrder(extra [][2]int32) ([]int32, bool) {
	n := len(e.chain)
	indeg := make([]int32, n)
	xsucc := make([][]int32, n)
	for u := 0; u < n; u++ {
		if s := e.chainSucc(int32(u)); s >= 0 {
			indeg[s]++
		}
		for _, v := range e.succs[u] {
			indeg[v]++
		}
	}
	for _, ed := range extra {
		xsucc[ed[0]] = append(xsucc[ed[0]], ed[1])
		indeg[ed[1]]++
	}
	h := &int32Heap{}
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			h.push(int32(u))
		}
	}
	order := make([]int32, 0, n)
	for h.len() > 0 {
		u := h.pop()
		order = append(order, u)
		visit := func(v int32) {
			indeg[v]--
			if indeg[v] == 0 {
				h.push(v)
			}
		}
		if s := e.chainSucc(u); s >= 0 {
			visit(s)
		}
		for _, v := range e.succs[u] {
			visit(v)
		}
		for _, v := range xsucc[u] {
			visit(v)
		}
	}
	return order, len(order) == n
}

// int32Heap is a plain min-heap of node IDs (deterministic topo tie-break).
type int32Heap struct{ a []int32 }

func (h *int32Heap) len() int { return len(h.a) }

func (h *int32Heap) push(v int32) {
	h.a = append(h.a, v)
	c := len(h.a) - 1
	for c > 0 {
		p := (c - 1) / 2
		if h.a[p] <= h.a[c] {
			break
		}
		h.a[p], h.a[c] = h.a[c], h.a[p]
		c = p
	}
}

func (h *int32Heap) pop() int32 {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		best := c
		if l < len(h.a) && h.a[l] < h.a[best] {
			best = l
		}
		if r < len(h.a) && h.a[r] < h.a[best] {
			best = r
		}
		if best == c {
			break
		}
		h.a[c], h.a[best] = h.a[best], h.a[c]
		c = best
	}
	return top
}
