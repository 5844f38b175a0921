package light

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/smt"
	"repro/internal/trace"
)

// Schedule is the replay plan computed from a log: a total order over the
// scheduled (gated) accesses. The range intervals whose interiors run
// ungated between their gated endpoints are the log's own Ranges.
type Schedule struct {
	Log *trace.Log

	// Order lists the gated accesses in execution order. The replay
	// enforces it per location: the gated accesses of each location run in
	// this order, and accesses of different locations only as program order
	// requires (gates.go).
	Order []trace.TC

	// Stats captures constraint-system size and solver effort for Table 1.
	Stats ScheduleStats

	// index is the log's counter index when synthesis built this
	// schedule; the gate table reuses it instead of indexing the log again.
	index *counterIndex
	// gateTable is the replayer's view of the schedule, built once on the
	// first replay or position lookup (gates.go).
	gatesOnce sync.Once
	gateTable *replayGates
}

// ScheduleStats describes the constraint system and its solution.
type ScheduleStats struct {
	IntVars      int
	Disjunctions int
	Conjunctive  int
	Resolved     int // disjunctions decided by propagation

	// Components is the number of location clusters (locations that share
	// an access, partition.go); LargestComponent is the variable count of
	// the biggest one.
	Components       int
	LargestComponent int
	// FastpathComponents counts clusters decided without a CDCL(T)
	// invocation: by propagation alone, or by per-location construction
	// whose union the final sort accepts (DESIGN.md §4d). When the CDCL(T)
	// fallback runs, every cluster holding a residual disjunction counts
	// as searched.
	FastpathComponents int

	Solver smt.Stats
}

// FastpathRate returns the fraction of components fully decided without a
// CDCL(T) invocation, in [0, 1]; 0 for an empty system.
func (s *ScheduleStats) FastpathRate() float64 {
	if s.Components <= 0 {
		return 0
	}
	return float64(s.FastpathComponents) / float64(s.Components)
}

// claimNodes is a read claim in node IDs: a set of reads lo..hi by one
// thread, all taking their value from write w (Section 4.2's dependences,
// generalized to prec/O1 runs); w is -1 for a read of the location's
// initial value.
type claimNodes struct{ w, lo, hi int32 }

// intervalNodes is a write-bearing interval in node IDs: either a
// standalone dependence-source write (lo == hi, singleton) or a HasWrite
// range whose interior must not be interleaved (Lemma 4.3); hi is the
// interval's final write (the dependence anchor).
type intervalNodes struct {
	thread    int32
	lo, hi    int32
	singleton bool
}

// itemSet is a log's schedule-relevant items in the node IDs of its counter
// index, grouped by location index: location li's read claims are
// rcs[rcsAt[li]:rcsAt[li+1]] and its write-bearing intervals
// wbs[wbsAt[li]:wbsAt[li+1]].
type itemSet struct {
	x     *counterIndex
	rcs   []claimNodes
	wbs   []intervalNodes
	rcsAt []int32
	wbsAt []int32
}

// locItemNodes returns location li's read claims and intervals.
func (s *itemSet) locItemNodes(li int) ([]claimNodes, []intervalNodes) {
	return s.rcs[s.rcsAt[li]:s.rcsAt[li+1]], s.wbs[s.wbsAt[li]:s.wbsAt[li+1]]
}

// genLocConstraints is the one implementation of Section 4.2's generation
// rules, applied to one location's items: A, the dependence edges; B, the
// non-interference disjunctions; C, the mutual exclusion of write-bearing
// intervals. It emits hard edges u < v through edge and disjunctions
// (a1 < b1) or (a2 < b2) through disj, in a fixed order: per read claim
// its edge then its disjunctions, then the interval pairs. Either callback
// may be nil, which skips the rules that feed only it: schedule synthesis
// generates all hard edges before any disjunction (synthesize).
//
// Node IDs must number accesses chain-major — each thread's accesses
// consecutive and ascending by counter. An interval's IDs then span one
// chain, so "this access lies inside that interval of the same thread" is
// plain ID containment, and the rules never look at counters.
func genLocConstraints(rcs []claimNodes, wbs []intervalNodes, edge func(u, v int32), disj func(a1, b1, a2, b2 int32)) {
	// A: dependence constraints.
	for _, rc := range rcs {
		if rc.w < 0 {
			if edge == nil {
				continue
			}
			// Initial-value reads precede every write to the location.
			for _, wb := range wbs {
				if wb.lo <= rc.lo && rc.hi <= wb.hi {
					continue // this range's own leading read
				}
				edge(rc.hi, wb.lo)
			}
			continue
		}
		if edge != nil {
			edge(rc.w, rc.lo)
		}
		if disj == nil {
			continue
		}
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
	if disj == nil {
		return
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

type disjunction struct {
	// (a1 < b1) or (a2 < b2)
	a1, b1, a2, b2 trace.TC
}

// collectItems indexes and lists the log (newCounterIndex, list) and groups
// its deps and ranges into per-location read claims and write-bearing
// intervals. The log must pass checkLogShape.
//
// A location's items keep log order: its ranges' intervals and claims, then
// its dependences' claims. Its write-bearing intervals are its HasWrite
// ranges, then a singleton for each dependence source — referenced by a Dep
// or as a StartsWithRead range's W, in that order — that no interval of the
// location covers yet: the replay must schedule that write, so it needs an
// interval for the non-interference pairing. An interval covers a source of
// its own thread within its counters, which in node IDs is containment:
// a binary search over the location's write ranges sorted by first node,
// each carrying the largest last node among it and those before it. A
// thread's ranges on different locations overlap in node IDs, so marking
// every node a range spans would be quadratic.
func collectItems(log *trace.Log) *itemSet {
	x := newCounterIndex(log)
	x.list()
	nl := len(x.locIDs)
	s := &itemSet{x: x, rcsAt: make([]int32, nl+1), wbsAt: make([]int32, nl+1)}

	// Group the deps and ranges by location index, in log order.
	locOf := func(l int32) int32 { li, _ := x.loc(l); return li }
	depAt, depIdx := groupBy(len(log.Deps), nl, func(i int) int32 { return locOf(log.Deps[i].Loc) })
	rgAt, rgIdx := groupBy(len(log.Ranges), nl, func(i int) int32 { return locOf(log.Ranges[i].Loc) })
	// Every dep and range files at most one claim and one interval.
	s.rcs = make([]claimNodes, 0, len(log.Deps)+len(log.Ranges))
	s.wbs = make([]intervalNodes, 0, len(log.Deps)+len(log.Ranges))

	// single[n] is 1 + the index of the last location with a singleton
	// at node n; spans are the current location's write ranges.
	single := make([]int32, len(x.vars))
	var spans [][2]int32
	for li := 0; li < nl; li++ {
		s.rcsAt[li], s.wbsAt[li] = int32(len(s.rcs)), int32(len(s.wbs))
		mark := int32(li + 1)
		spans = spans[:0]
		rgs := rgIdx[rgAt[li]:rgAt[li+1]]
		for _, i := range rgs {
			rg := &log.Ranges[i]
			if !rg.HasWrite && !rg.StartsWithRead {
				continue
			}
			lo, _ := x.node(trace.TC{Thread: rg.Thread, Counter: rg.Start})
			hi, _ := x.node(trace.TC{Thread: rg.Thread, Counter: rg.End})
			if rg.HasWrite {
				s.wbs = append(s.wbs, intervalNodes{thread: rg.Thread, lo: lo, hi: hi})
				spans = append(spans, [2]int32{lo, hi})
			}
			if rg.StartsWithRead {
				// Only the first access of a write range is known to read
				// W; the rest of the interval is protected by the range.
				last := hi
				if rg.HasWrite {
					last = lo
				}
				s.rcs = append(s.rcs, claimNodes{w: x.source(rg.W), lo: lo, hi: last})
			}
		}
		if len(spans) > 1 {
			slices.SortFunc(spans, func(a, b [2]int32) int { return cmp.Compare(a[0], b[0]) })
			for i := 1; i < len(spans); i++ {
				spans[i][1] = max(spans[i][1], spans[i-1][1])
			}
		}
		source := func(w trace.TC) {
			if w.IsInitial() {
				return
			}
			n := x.source(w)
			i := sort.Search(len(spans), func(i int) bool { return spans[i][0] > n }) - 1
			if i >= 0 && n <= spans[i][1] || single[n] == mark {
				return
			}
			single[n] = mark
			s.wbs = append(s.wbs, intervalNodes{thread: w.Thread, lo: n, hi: n, singleton: true})
		}
		for _, i := range depIdx[depAt[li]:depAt[li+1]] {
			d := &log.Deps[i]
			r, _ := x.node(d.R)
			s.rcs = append(s.rcs, claimNodes{w: x.source(d.W), lo: r, hi: r})
			source(d.W)
		}
		for _, i := range rgs {
			if rg := &log.Ranges[i]; rg.StartsWithRead {
				source(rg.W)
			}
		}
	}
	s.rcsAt[nl], s.wbsAt[nl] = int32(len(s.rcs)), int32(len(s.wbs))
	return s
}

// groupBy sorts the indexes 0..n-1 by key in [0, nk), stably: the indexes
// with key k are idx[at[k]:at[k+1]], ascending.
func groupBy(n, nk int, key func(i int) int32) (at, idx []int32) {
	at = make([]int32, nk+1)
	for i := 0; i < n; i++ {
		at[key(i)+1]++
	}
	for k := 0; k < nk; k++ {
		at[k+1] += at[k]
	}
	idx = make([]int32, n)
	next := slices.Clone(at[:nk])
	for i := 0; i < n; i++ {
		k := key(i)
		idx[next[k]] = int32(i)
		next[k]++
	}
	return at, idx
}
