package light

import (
	"cmp"
	"slices"

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
// access's position with a cursor instead of a map lookup.
type replayGates struct {
	// wait[p] is the position p parks on before it executes, -1 for none.
	// p is the only position that can park on wait[p].
	wait []int32
	// threads is indexed by log thread; Order entries naming a thread
	// outside the log's thread table execute on no thread.
	threads []threadGates
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

// find returns the schedule position of the thread's gated access at
// counter c.
func (tg *threadGates) find(c uint64) (int32, bool) {
	i, ok := slices.BinarySearchFunc(tg.gated, c, func(a gatedAccess, c uint64) int { return cmp.Compare(a.counter, c) })
	if !ok {
		return 0, false
	}
	return tg.gated[i].pos, true
}

// gates returns the schedule's replay gates, building them on first use.
// Order and Log must not change once a schedule has been replayed or asked
// for a position.
func (s *Schedule) gates() *replayGates {
	s.gatesOnce.Do(func() { s.gateTable = buildReplayGates(s) })
	return s.gateTable
}

// position returns tc's position in Order. An access Order does not list,
// or whose thread is outside the log's thread table, has none.
func (s *Schedule) position(tc trace.TC) (int, bool) {
	g := s.gates()
	if tc.Thread < 0 || int(tc.Thread) >= len(g.threads) {
		return 0, false
	}
	p, ok := g.threads[tc.Thread].find(tc.Counter)
	return int(p), ok
}

// buildReplayGates derives the gates from the schedule and its log's deps
// and ranges.
//
// An Order entry's location is the one its dependences or ranges name.
// Every synthesized entry comes from a dep or a range, so only a corrupted
// schedule has an entry with no location; it waits for nothing. An entry
// naming a thread outside the log's thread table executes on no thread, so
// a replay that reaches it ends in a stall.
func buildReplayGates(s *Schedule) *replayGates {
	log := s.Log
	nt := len(log.Threads)
	g := &replayGates{wait: make([]int32, len(s.Order)), threads: make([]threadGates, nt)}
	inTable := func(th int32) bool { return th >= 0 && int(th) < nt }

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
		if inTable(tc.Thread) {
			tg := &g.threads[tc.Thread]
			tg.gated = append(tg.gated, gatedAccess{counter: tc.Counter, pos: int32(p)})
		}
	}
	byCounter := func(a, b gatedAccess) int { return cmp.Compare(a.counter, b.counter) }
	for th := range g.threads {
		if gs := g.threads[th].gated; !slices.IsSortedFunc(gs, byCounter) {
			slices.SortStableFunc(gs, byCounter)
		}
	}

	// Each entry's location, -1 until a dep or range names it.
	loc := make([]int32, len(s.Order))
	for i := range loc {
		loc[i] = -1
	}
	locate := func(tc trace.TC, l int32) {
		if !inTable(tc.Thread) || l < 0 {
			return
		}
		if p, found := g.threads[tc.Thread].find(tc.Counter); found && loc[p] < 0 {
			loc[p] = l
		}
	}
	for _, d := range log.Deps {
		locate(d.R, d.Loc)
		locate(d.W, d.Loc)
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
		locate(trace.TC{Thread: rg.Thread, Counter: rg.Start}, rg.Loc)
		locate(trace.TC{Thread: rg.Thread, Counter: rg.End}, rg.Loc)
		if rg.StartsWithRead {
			locate(rg.W, rg.Loc)
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
	// on its location when that one belongs to another thread. last is keyed
	// by location, so a corrupted log's sparse IDs cost no more than dense ones.
	last := make(map[int32]int32)
	for p, tc := range s.Order {
		g.wait[p] = -1
		l := loc[p]
		if l < 0 {
			continue
		}
		q, seen := last[l]
		last[l] = int32(p)
		if seen && s.Order[q].Thread != tc.Thread {
			g.wait[p] = q
		}
	}
	return g
}
