package light

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// CheckSchedule is the standalone schedule checker: straight from the log's
// deps and ranges, sharing no code with synthesis, it checks that a replay
// of the schedule reproduces every recorded reads-from (Lemma 4.1, Theorem
// 1). The write-bearing intervals of a location are its HasWrite ranges and
// its dependence sources outside every write range of their thread. One
// walk over Order, keeping per location the last interval that has started,
// rejects
//
//   - an Order that is not exactly the log's scheduled accesses;
//   - a program-order inversion (which covers a repeated entry);
//   - a read claim (a dependence's read, a read-only range, a write range's
//     leading read) whose source write has not run by its first read, or
//     whose location's last-started interval at its final read is not the
//     source's;
//   - an initial-value read after the location's first write;
//   - another thread's interval starting inside a write range (Lemma 4.3).
func CheckSchedule(log *trace.Log, sched *Schedule) error {
	n := len(sched.Order)
	// Index each thread's scheduled counters and their positions, checking
	// program order: counters strictly increase, so Order repeats no entry.
	nt := len(log.Threads)
	ctr, posOf := make([][]uint64, nt), make([][]int32, nt)
	for p, tc := range sched.Order {
		th := tc.Thread
		if uint32(th) >= uint32(nt) {
			return fmt.Errorf("light: schedule entry %d (%+v) names no thread of the log", p, tc)
		}
		if c := ctr[th]; len(c) > 0 && c[len(c)-1] >= tc.Counter {
			return fmt.Errorf("light: program order violated: thread %d runs counter %d at position %d, after counter %d", th, tc.Counter, p, c[len(c)-1])
		}
		ctr[th], posOf[th] = append(ctr[th], tc.Counter), append(posOf[th], int32(p))
	}

	// File every log item as an event at the position of its access.
	var err error
	fail := func(e error) { err = cmp.Or(err, e) } // keeps the first

	seen := make([]bool, n) // position -> some log item names its access
	at := func(tc trace.TC) (int32, bool) {
		var i int
		ok := uint32(tc.Thread) < uint32(nt)
		if ok {
			i, ok = slices.BinarySearch(ctr[tc.Thread], tc.Counter)
		}
		if !ok {
			fail(fmt.Errorf("light: log access %+v is missing from the schedule", tc))
			return 0, false
		}
		p := posOf[tc.Thread][i]
		seen[p] = true
		return p, true
	}
	events := make([]walkEvent, 0, 2*len(log.Deps)+4*len(log.Ranges))
	event := func(kind uint8, loc int32, tc, aux trace.TC, end int32) (int32, bool) {
		p, ok := at(tc)
		if ok {
			events = append(events, walkEvent{kind: kind, loc: loc, pos: p, end: end, tc: tc, aux: aux})
		}
		return p, ok
	}
	// claim files thread's reads [lo, hi] of loc, which all see src: the
	// first must follow src, the walk checks the final one.
	claim := func(loc int32, src trace.TC, thread int32, lo, hi uint64) {
		first, ok := event(evClaim, loc, trace.TC{Thread: thread, Counter: hi}, src, 0)
		if lo != hi {
			first, ok = at(trace.TC{Thread: thread, Counter: lo})
		}
		if src.IsInitial() {
			return
		}
		if ps, ok2 := event(evSource, loc, src, trace.TC{}, 0); ok && ok2 && ps >= first {
			fail(fmt.Errorf("light: read t%d#%d runs at position %d, before its source %+v at %d", thread, lo, first, src, ps))
		}
	}
	for _, d := range log.Deps {
		claim(d.Loc, d.W, d.R.Thread, d.R.Counter, d.R.Counter)
	}
	for _, rg := range log.Ranges {
		start := trace.TC{Thread: rg.Thread, Counter: rg.Start}
		if rg.HasWrite {
			end, _ := at(trace.TC{Thread: rg.Thread, Counter: rg.End})
			event(evStart, rg.Loc, start, trace.TC{Counter: rg.End}, end)
		}
		if rg.StartsWithRead {
			hi := rg.End
			if rg.HasWrite {
				hi = rg.Start // the rest of the interval is the range's own
			}
			claim(rg.Loc, rg.W, rg.Thread, rg.Start, hi)
		}
	}
	if err != nil {
		return err
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("light: schedule entry %d (%+v) is not a scheduled access of the log", p, sched.Order[p])
		}
	}
	return walkEvents(events, n)
}

// Walk event kinds, in the order they apply at one schedule position: a
// read claim's final read sees the location before an interval opening at
// the same access (a range that begins by reading), and a dependence source
// files after the write range it may belong to has opened.
const (
	evClaim = iota
	evStart
	evSource
	numEvents
)

// walkEvent is one log item at the schedule position of its access tc. aux
// is a claim's source or a starting range's end counter; end is that
// range's end position.
type walkEvent struct {
	kind          uint8
	loc, pos, end int32
	tc, aux       trace.TC
}

// interval is a write-bearing interval of one thread on one location,
// ending at schedule position end.
type interval struct {
	thread int32
	lo, hi uint64
	end    int32
	ok     bool
}

func (iv interval) contains(tc trace.TC) bool {
	return iv.ok && iv.thread == tc.Thread && iv.lo <= tc.Counter && tc.Counter <= iv.hi
}

// walkEvents orders the events of an n-entry schedule by (position, kind),
// with a counting sort, and walks them.
func walkEvents(events []walkEvent, n int) error {
	at := make([]int32, numEvents*n+1)
	for _, e := range events {
		at[int(e.pos)*numEvents+int(e.kind)+1]++
	}
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	sorted := make([]walkEvent, len(events))
	for _, e := range events {
		k := int(e.pos)*numEvents + int(e.kind)
		sorted[at[k]] = e
		at[k]++
	}

	// While a write range is open, it is its location's last-started
	// interval: another thread's interval starting inside it is rejected.
	last := map[int32]interval{} // by location
	for i := range sorted {
		e := &sorted[i]
		prev := last[e.loc]
		switch {
		case e.kind == evClaim && e.aux.IsInitial():
			if prev.ok {
				return fmt.Errorf("light: initial-value read %+v runs at position %d, after thread %d's write from counter %d", e.tc, e.pos, prev.thread, prev.lo)
			}
		case e.kind == evClaim:
			if !prev.contains(e.aux) {
				return fmt.Errorf("light: read %+v at position %d does not see its source %+v: thread %d's write from counter %d started in between", e.tc, e.pos, e.aux, prev.thread, prev.lo)
			}
		case e.kind == evSource && prev.contains(e.tc):
			// Inside its thread's write range, or filed already.
		default: // an interval starts
			iv := interval{thread: e.tc.Thread, lo: e.tc.Counter, hi: e.aux.Counter, end: e.end, ok: true}
			if e.kind == evSource {
				iv.hi, iv.end = iv.lo, e.pos
			}
			if prev.ok && prev.thread != iv.thread && e.pos < prev.end {
				return fmt.Errorf("light: thread %d's write at counter %d (position %d) interrupts thread %d's range from counter %d", iv.thread, iv.lo, e.pos, prev.thread, prev.lo)
			}
			last[e.loc] = iv
		}
	}
	return nil
}
