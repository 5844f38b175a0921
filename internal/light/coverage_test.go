package light

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// tcInterval is a write-bearing interval in TC form.
type tcInterval struct {
	thread    int32
	lo, hi    uint64
	singleton bool
}

// coverageRef lists each location's write-bearing intervals, locations in
// ascending order, from the log's counters alone: its HasWrite ranges in
// log order, then a singleton for each dependence source (a Dep's W, then
// a StartsWithRead range's W) that no HasWrite range of the same thread on
// the location holds within its counters and no earlier singleton names.
// It is the rule collectItems implements with node IDs.
func coverageRef(log *trace.Log, locs []int32) [][]tcInterval {
	out := make([][]tcInterval, len(locs))
	for li, loc := range locs {
		var wbs []tcInterval
		for _, rg := range log.Ranges {
			if rg.Loc == loc && rg.HasWrite {
				wbs = append(wbs, tcInterval{rg.Thread, rg.Start, rg.End, false})
			}
		}
		ranges := len(wbs)
		source := func(w trace.TC) {
			if w.IsInitial() {
				return
			}
			for i, wb := range wbs {
				if wb.thread == w.Thread && (i < ranges && wb.lo <= w.Counter && w.Counter <= wb.hi || wb.singleton && wb.lo == w.Counter) {
					return
				}
			}
			wbs = append(wbs, tcInterval{w.Thread, w.Counter, w.Counter, true})
		}
		for _, d := range log.Deps {
			if d.Loc == loc {
				source(d.W)
			}
		}
		for _, rg := range log.Ranges {
			if rg.Loc == loc && rg.StartsWithRead {
				source(rg.W)
			}
		}
		out[li] = wbs
	}
	return out
}

// itemIntervals returns an item set's write-bearing intervals in TC form,
// per location.
func itemIntervals(s *itemSet) [][]tcInterval {
	out := make([][]tcInterval, len(s.x.locIDs))
	for li := range s.x.locIDs {
		_, wbs := s.locItemNodes(li)
		for _, wb := range wbs {
			out[li] = append(out[li], tcInterval{wb.thread, s.x.vars[wb.lo].Counter, s.x.vars[wb.hi].Counter, wb.singleton})
		}
	}
	return out
}

// TestCoverageMatchesMarking checks collectItems' search-based coverage
// against coverageRef on every golden log, on nestedRangesLog, and on a
// location whose ranges of one thread overlap, which no recorder emits: a
// source inside the outer range but past the inner one is covered.
func TestCoverageMatchesMarking(t *testing.T) {
	check := func(name string, log *trace.Log) {
		s := collectItems(log)
		if got, want := itemIntervals(s), coverageRef(log, s.x.locIDs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: write-bearing intervals differ from the reference", name)
		}
	}
	for _, src := range goldenSources() {
		check(src.name, loadGoldenLog(t, src))
	}
	check("nested ranges", nestedRangesLog(200))
	w := func(c uint64) trace.TC { return trace.TC{Thread: 0, Counter: c} }
	check("overlapping ranges", &trace.Log{
		Threads: []string{"0", "0.1"},
		Ranges: []trace.Range{
			{Loc: 0, Thread: 0, Start: 1, End: 10, W: w(1), HasWrite: true},
			{Loc: 0, Thread: 0, Start: 3, End: 4, W: w(3), HasWrite: true},
		},
		Deps: []trace.Dep{
			{Loc: 0, W: w(6), R: trace.TC{Thread: 1, Counter: 1}},
			{Loc: 0, W: w(12), R: trace.TC{Thread: 1, Counter: 2}},
			{Loc: 0, W: w(12), R: trace.TC{Thread: 1, Counter: 3}},
		},
	})
}

// nestedRangesLog is one thread's n write ranges on n locations, range k
// on location k spanning counters k..2n-1-k, so each range spans every
// later one; a second thread reads each location from the middle of its
// range, which that range covers, and from counter 2n, which nothing
// covers.
func nestedRangesLog(n int) *trace.Log {
	log := &trace.Log{Threads: []string{"0", "0.1"}}
	for k := 0; k < n; k++ {
		log.Ranges = append(log.Ranges, trace.Range{
			Loc: int32(k), Thread: 0, Start: uint64(k), End: uint64(2*n - 1 - k),
			W: trace.TC{Thread: 0, Counter: uint64(k)}, HasWrite: true,
		})
		log.Deps = append(log.Deps,
			trace.Dep{Loc: int32(k), W: trace.TC{Thread: 0, Counter: uint64(n)}, R: trace.TC{Thread: 1, Counter: uint64(2 * k)}},
			trace.Dep{Loc: int32(k), W: trace.TC{Thread: 0, Counter: uint64(2 * n)}, R: trace.TC{Thread: 1, Counter: uint64(2*k + 1)}},
		)
	}
	return log
}

// TestCollectItemsLinearInNestedRanges requires collectItems to allocate in
// proportion to the log on nestedRangesLog: doubling 4,000 nested ranges
// may at most about double the bytes.
func TestCollectItemsLinearInNestedRanges(t *testing.T) {
	bytes := func(n int) uint64 {
		log := nestedRangesLog(n)
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			collectItems(log)
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := bytes(4000), bytes(8000)
	if float64(large) > 2.5*float64(small) {
		t.Errorf("collectItems allocated %d B for 4,000 nested ranges and %d B for 8,000: not linear", small, large)
	}
}
