package light

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// counterIndex numbers a log's scheduled accesses and its locations
// (DESIGN.md §4d, the build step). Schedule synthesis resolves items to
// node IDs through it, and the replay gates resolve accesses to schedule
// positions through it (gates.go), so a log is indexed once per schedule.
//
// The scheduled accesses are the ones the log's deps and ranges name:
// every dependence's read and non-initial source, the first and last
// access of every range that writes or starts with a read, and the source
// of a range that starts with a read. Node IDs number them chain-major —
// threads ascending, each thread's counters ascending — so node IDs equal
// positions in the (thread, counter)-sorted access list and map 1:1 onto
// an smt.OrderEngine's layout, and an interval of one thread is a
// contiguous ID range. Locations get indexes in ascending order.
//
// Each thread's counters, and the locations, are one keyArm. Accesses of a
// thread outside the log's thread table and negative locations are left
// out; ComputeSchedule rejects such logs before indexing them
// (checkLogShape).
//
// The replay gates need only the numbering and the counts; synthesis and
// forensics also read the lists back (list).
type counterIndex struct {
	threads []keyArm   // log thread -> its scheduled counters
	base    []int32    // log thread -> its first node ID
	nodes   int        // the number of nodes
	locs    keyArm     // location -> location index
	nlocs   int        // the number of locations
	vars    []trace.TC // node -> access, once listed
	locIDs  []int32    // location index -> location, once listed
}

// denseSpanFactor decides an arm's form: an arm whose value span is at most
// this many times the references filed into it is dense.
const denseSpanFactor = 16

// keyArm ranks a set of values: a value's rank is its position among the
// set's distinct values in ascending order. A dense arm holds one slot per
// value of its span and answers in O(1); a sparse arm binary-searches its
// sorted values. The form depends only on the span and the reference
// count (denseSpanFactor), so a dense arm's slots are bounded by its
// references: an arm spanning counters up to 2^63 is sparse.
//
// An arm is built in two passes over the same references: note each, plan,
// add each, seal.
type keyArm struct {
	min, max uint64
	refs     int
	slot     []int32  // dense: slot[v-min] is v's rank, -1 for a value not in the set
	vals     []uint64 // sparse: the set, ascending
}

// note counts one reference to v into the arm's extent.
func (a *keyArm) note(v uint64) {
	if a.refs == 0 || v < a.min {
		a.min = v
	}
	if a.refs == 0 || v > a.max {
		a.max = v
	}
	a.refs++
}

// plan chooses the arm's form from the noted extent and sizes it.
func (a *keyArm) plan() {
	switch {
	case a.refs == 0:
	case a.max-a.min < uint64(a.refs)*denseSpanFactor:
		a.slot = make([]int32, a.max-a.min+1)
	default:
		a.vals = make([]uint64, 0, a.refs)
	}
}

// add files one reference to a noted value.
func (a *keyArm) add(v uint64) {
	if a.slot != nil {
		a.slot[v-a.min] = 1
		return
	}
	a.vals = append(a.vals, v)
}

// seal ranks the filed values and returns how many are distinct.
func (a *keyArm) seal() int {
	if a.slot == nil {
		slices.Sort(a.vals)
		a.vals = slices.Compact(a.vals)
		return len(a.vals)
	}
	n := int32(0)
	for i, m := range a.slot {
		if m == 0 {
			a.slot[i] = -1
			continue
		}
		a.slot[i] = n
		n++
	}
	return int(n)
}

// each calls f for every value of the set, ascending.
func (a *keyArm) each(f func(v uint64)) {
	if a.slot == nil {
		for _, v := range a.vals {
			f(v)
		}
		return
	}
	for i, r := range a.slot {
		if r >= 0 {
			f(a.min + uint64(i))
		}
	}
}

// rank returns v's rank, or false when v is not in the set.
func (a *keyArm) rank(v uint64) (int32, bool) {
	if a.slot != nil {
		if v -= a.min; v < uint64(len(a.slot)) {
			r := a.slot[v]
			return r, r >= 0
		}
		return -1, false
	}
	i, ok := slices.BinarySearch(a.vals, v)
	return int32(i), ok
}

// newCounterIndex numbers the log's scheduled accesses and locations in two
// passes over its deps and ranges: the first sizes every arm, the second
// files the references. It does not list them; see list.
func newCounterIndex(log *trace.Log) *counterIndex {
	nt := len(log.Threads)
	x := &counterIndex{threads: make([]keyArm, nt), base: make([]int32, nt)}
	eachKey(log, func(tc trace.TC) { x.threads[tc.Thread].note(tc.Counter) }, func(loc int32) { x.locs.note(uint64(loc)) })
	for th := range x.threads {
		x.threads[th].plan()
	}
	x.locs.plan()
	eachKey(log, func(tc trace.TC) { x.threads[tc.Thread].add(tc.Counter) }, func(loc int32) { x.locs.add(uint64(loc)) })

	for th := range x.threads {
		x.base[th] = int32(x.nodes)
		x.nodes += x.threads[th].seal()
	}
	x.nlocs = x.locs.seal()
	return x
}

// list fills vars and locIDs, the accesses and locations in node and
// location index order, for synthesis and forensics.
func (x *counterIndex) list() {
	x.vars = make([]trace.TC, 0, x.nodes)
	for th := range x.threads {
		x.threads[th].each(func(c uint64) {
			x.vars = append(x.vars, trace.TC{Thread: int32(th), Counter: c})
		})
	}
	x.locIDs = make([]int32, 0, x.nlocs)
	x.locs.each(func(l uint64) { x.locIDs = append(x.locIDs, int32(l)) })
}

// eachKey calls access for every scheduled access reference of the log and
// loc for every location reference, skipping threads outside the thread
// table and negative locations.
func eachKey(log *trace.Log, access func(trace.TC), loc func(int32)) {
	nt := uint32(len(log.Threads))
	tc := func(t trace.TC) {
		if uint32(t.Thread) < nt {
			access(t)
		}
	}
	for _, d := range log.Deps {
		if d.Loc >= 0 {
			loc(d.Loc)
		}
		tc(d.R)
		tc(d.W) // the initial thread is outside the table
	}
	for _, rg := range log.Ranges {
		if rg.Loc >= 0 {
			loc(rg.Loc)
		}
		if rg.HasWrite || rg.StartsWithRead {
			tc(trace.TC{Thread: rg.Thread, Counter: rg.Start})
			tc(trace.TC{Thread: rg.Thread, Counter: rg.End})
		}
		if rg.StartsWithRead {
			tc(rg.W)
		}
	}
}

// node returns an access's node ID, or false when the index does not cover
// it.
func (x *counterIndex) node(tc trace.TC) (int32, bool) {
	if uint32(tc.Thread) >= uint32(len(x.threads)) {
		return -1, false
	}
	r, ok := x.threads[tc.Thread].rank(tc.Counter)
	return x.base[tc.Thread] + r, ok
}

// source returns the node ID of a dependence source, -1 for the initial
// value. The source must be covered.
func (x *counterIndex) source(w trace.TC) int32 {
	if w.IsInitial() {
		return -1
	}
	n, _ := x.node(w)
	return n
}

// loc returns a location's index, or false when the log names no such
// location.
func (x *counterIndex) loc(l int32) (int32, bool) {
	if l < 0 {
		return -1, false
	}
	return x.locs.rank(uint64(l))
}

// chainSizes returns the node count of every thread that has nodes, in
// thread order: the program-order chains of an smt.OrderEngine.
func (x *counterIndex) chainSizes() []int {
	var sizes []int
	for th := range x.threads {
		end := x.nodes
		if th+1 < len(x.base) {
			end = int(x.base[th+1])
		}
		if n := end - int(x.base[th]); n > 0 {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// checkLogShape rejects a log that names a negative location, or a thread
// outside its thread table as a dependence's reader, a range's thread, or
// a non-initial source write. Such a log cannot come from a recording, and
// neither synthesis nor the replay gates can place its accesses.
func checkLogShape(log *trace.Log) error {
	nt := uint32(len(log.Threads))
	src := func(w trace.TC) bool { return w.IsInitial() || uint32(w.Thread) < nt }
	for i, d := range log.Deps {
		if d.Loc < 0 || uint32(d.R.Thread) >= nt || !src(d.W) {
			return fmt.Errorf("light: malformed log: dependence %d (%+v) names a negative location or a thread outside the log's %d threads", i, d, nt)
		}
	}
	for i, rg := range log.Ranges {
		if rg.Loc < 0 || uint32(rg.Thread) >= nt || rg.StartsWithRead && !src(rg.W) {
			return fmt.Errorf("light: malformed log: range %d (%+v) names a negative location or a thread outside the log's %d threads", i, rg, nt)
		}
	}
	return nil
}
