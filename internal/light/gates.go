package light

import (
	"cmp"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Replay gates: the schedule in the form the replayer's per-access path
// consumes (DESIGN.md §4b, "Replay enforces the per-location order").
//
// Every constraint of the Section 4.2 system relates accesses of one
// location, except program order. So a replay reproduces every read's
// source, keeps O1 range interiors inside their gated ends, and keeps the
// monitor ghosts' acquire order as long as the gated accesses of each
// location run in the order Schedule.Order gives them. A gated access
// therefore waits only for the schedule entry just before it on the same
// location, and only when that entry belongs to another thread; program
// order covers the rest. Waits point strictly backwards in Order, which is a
// linearization of program order, so the waits cannot deadlock on a
// well-formed schedule.

// replayGates is one schedule's predecessor table plus each thread's gated
// accesses and range starts in counter order, so the replayer finds an
// access's position with a cursor instead of a lookup. Other callers find a
// logged access's position through the log's counter index: x numbers the
// access, pos maps the number to the position.
type replayGates struct {
	// wait[p] is the position p parks on before it executes, -1 for none.
	// p is the only position that can park on wait[p].
	wait []int32
	// threads is indexed by log thread; Order entries naming a thread
	// outside the log's thread table execute on no thread.
	threads []threadGates
	// x indexes the log's scheduled accesses and locations; pos[n] is the
	// first position of node n in Order, -1 when Order does not list it.
	x   *counterIndex
	pos []int32
}

// threadGates is one log thread's view of the schedule.
type threadGates struct {
	gated  []gatedAccess // counter ascending
	ranges []rangeGate   // start ascending
}

// gatedAccess is one scheduled access of a thread and its position.
type gatedAccess struct {
	counter uint64
	pos     int32
}

// rangeGate is one recorded range of a thread, opened by its gated start:
// the thread's accesses on the range's location run ungated up to end.
type rangeGate struct {
	start, end uint64
}

// gates returns the schedule's replay gates, building them on first use
// under a "gates" span. Order and Log must not change once a schedule has
// been replayed or asked for a position.
func (s *Schedule) gates() *replayGates {
	s.gatesOnce.Do(func() {
		span := obs.StartSpan("gates")
		s.gateTable = buildReplayGates(s)
		span.SetItems(int64(len(s.Order)))
		span.End()
	})
	return s.gateTable
}

// position returns tc's position in Order: the log's counter index numbers
// tc, and the gate table maps the number to its first position. An access
// the log's deps and ranges do not name, or that Order does not list, has
// none.
func (s *Schedule) position(tc trace.TC) (int, bool) {
	g := s.gates()
	if n, ok := g.x.node(tc); ok && g.pos[n] >= 0 {
		return int(g.pos[n]), true
	}
	return 0, false
}

// buildReplayGates derives the gates from the schedule and its log's deps
// and ranges, through the counter index synthesis built, or a new one for a
// schedule that came from elsewhere.
//
// An Order entry's location is the one its dependences or ranges name.
// Every synthesized entry comes from a dep or a range, so only a corrupted
// schedule has an entry with no location; it waits for nothing. An entry
// naming a thread outside the log's thread table executes on no thread, so
// a replay that reaches it ends in a stall. A negative location names no
// location; ComputeSchedule rejects a log that has one.
func buildReplayGates(s *Schedule) *replayGates {
	log := s.Log
	x := s.index
	if x == nil {
		x = newCounterIndex(log)
	}
	nt := len(log.Threads)
	g := &replayGates{
		wait:    make([]int32, len(s.Order)),
		threads: make([]threadGates, nt),
		x:       x,
		pos:     make([]int32, x.nodes),
	}
	inTable := func(th int32) bool { return th >= 0 && int(th) < nt }
	for n := range g.pos {
		g.pos[n] = -1
	}

	// Per-thread gated accesses: Order lists each thread's accesses in
	// counter order on any schedule that respects program order; sort the
	// ones that do not.
	counts := make([]int, nt)
	for _, tc := range s.Order {
		if inTable(tc.Thread) {
			counts[tc.Thread]++
		}
	}
	backing := make([]gatedAccess, 0, len(s.Order))
	for th, c := range counts {
		g.threads[th].gated = backing[len(backing) : len(backing) : len(backing)+c]
		backing = backing[:len(backing)+c]
	}
	for p, tc := range s.Order {
		if !inTable(tc.Thread) {
			continue
		}
		tg := &g.threads[tc.Thread]
		tg.gated = append(tg.gated, gatedAccess{counter: tc.Counter, pos: int32(p)})
		if n, ok := x.node(tc); ok && g.pos[n] < 0 {
			g.pos[n] = int32(p)
		}
	}
	byCounter := func(a, b gatedAccess) int { return cmp.Compare(a.counter, b.counter) }
	for th := range g.threads {
		if gs := g.threads[th].gated; !slices.IsSortedFunc(gs, byCounter) {
			slices.SortStableFunc(gs, byCounter)
		}
	}

	// Each entry's location index, -1 until a dep or range names it.
	loc := make([]int32, len(s.Order))
	for i := range loc {
		loc[i] = -1
	}
	locate := func(tc trace.TC, li int32) {
		if n, ok := x.node(tc); ok {
			if p := g.pos[n]; p >= 0 && loc[p] < 0 {
				loc[p] = li
			}
		}
	}
	for _, d := range log.Deps {
		if li, ok := x.loc(d.Loc); ok {
			locate(d.R, li)
			locate(d.W, li)
		}
	}
	clear(counts)
	for _, rg := range log.Ranges {
		if inTable(rg.Thread) {
			counts[rg.Thread]++
		}
	}
	for th, c := range counts {
		g.threads[th].ranges = make([]rangeGate, 0, c)
	}
	for _, rg := range log.Ranges {
		if li, ok := x.loc(rg.Loc); ok {
			locate(trace.TC{Thread: rg.Thread, Counter: rg.Start}, li)
			locate(trace.TC{Thread: rg.Thread, Counter: rg.End}, li)
			if rg.StartsWithRead {
				locate(rg.W, li)
			}
		}
		if inTable(rg.Thread) {
			tg := &g.threads[rg.Thread]
			tg.ranges = append(tg.ranges, rangeGate{start: rg.Start, end: rg.End})
		}
	}
	byStart := func(a, b rangeGate) int { return cmp.Compare(a.start, b.start) }
	for th := range g.threads {
		if rs := g.threads[th].ranges; !slices.IsSortedFunc(rs, byStart) {
			slices.SortFunc(rs, byStart)
		}
	}

	// The predecessor walk: each located entry waits for the previous entry
	// on its location when that one belongs to another thread. last is
	// indexed by location index, so a log's location IDs cost nothing.
	last := make([]int32, x.nlocs)
	for i := range last {
		last[i] = -1
	}
	for p, tc := range s.Order {
		g.wait[p] = -1
		l := loc[p]
		if l < 0 {
			continue
		}
		q := last[l]
		last[l] = int32(p)
		if q >= 0 && s.Order[q].Thread != tc.Thread {
			g.wait[p] = q
		}
	}
	return g
}
