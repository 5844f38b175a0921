package light

import (
	"slices"
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

// collectItems groups the log's deps and ranges into per-location read
// claims and write-bearing intervals.
func collectItems(log *trace.Log) map[int32]*locItems {
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
	for _, rg := range log.Ranges {
		li := get(rg.Loc)
		if rg.HasWrite {
			li.wbs = append(li.wbs, writeBearing{Thread: rg.Thread, Lo: rg.Start, Hi: rg.End})
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
	// Then the dependence sources, in the order they are referenced.
	for _, d := range log.Deps {
		li := get(d.Loc)
		li.rcs = append(li.rcs, readClaim{W: d.W, Thread: d.R.Thread, Lo: d.R.Counter, Hi: d.R.Counter})
		li.addSource(d.W)
	}
	for _, rg := range log.Ranges {
		if rg.StartsWithRead {
			items[rg.Loc].addSource(rg.W)
		}
	}
	return items
}

// addSource files dependence source w — whether referenced by an individual
// Dep or as a Range's W — as a write-bearing item: it is a write the replay
// must schedule, so it needs one for the non-interference pairing. An item
// of its thread that already covers it is enough: the HasWrite range
// containing it, or its own singleton filed for an earlier reference. The
// HasWrite ranges must therefore be filed first.
func (li *locItems) addSource(w trace.TC) {
	if w.IsInitial() {
		return
	}
	for _, wb := range li.wbs {
		if wb.Thread == w.Thread && wb.Lo <= w.Counter && w.Counter <= wb.Hi {
			return
		}
	}
	li.wbs = append(li.wbs, writeBearing{Thread: w.Thread, Lo: w.Counter, Hi: w.Counter, Singleton: true})
}
