package light

import (
	"fmt"
	"sort"

	"repro/internal/smt"
	"repro/internal/trace"
)

// The rule reference: the whole Section 4.2 constraint system of a log,
// every disjunction materialized, in TC form. Schedule synthesis never
// stores the disjunctions the hard order settles, and CheckSchedule checks
// the replay semantics without generating constraints at all, so the tests
// use this form to judge both against the generation rules themselves:
// checkRules is a schedule checker that evaluates every constraint, and
// lemma41_test, partition_test and propagate_diff_test evaluate or
// propagate the system directly.

// denseRef is a denseSystem with every location's disjunctions stored,
// location li's being disj[disjAt[li]:disjAt[li+1]].
type denseRef struct {
	*denseSystem
	disj   []smt.OrderDisjunction
	disjAt []int32
}

// buildDense generates the whole constraint system of an item set, storing
// every disjunction.
func buildDense(items map[int32]*locItems) *denseRef {
	ds := &denseRef{denseSystem: newDenseSystem(items, newDenseIndex(items))}
	n := len(ds.locIDs)
	ds.disjAt = make([]int32, n+1)
	disj := func(a1, b1, a2, b2 int32) {
		ds.disj = append(ds.disj, smt.OrderDisjunction{A1: a1, B1: b1, A2: a2, B2: b2})
	}
	for li := range ds.locIDs {
		ds.disjAt[li] = int32(len(ds.disj))
		ds.genDisj(li, disj)
	}
	ds.disjAt[n] = int32(len(ds.disj))
	return ds
}

// locSys is one location's contribution to the constraint system.
type locSys struct {
	loc  int32
	conj [][2]trace.TC
	disj []disjunction
}

// system is the generated constraint system in TC form: the per-location
// breakdown plus vars, every touched access sorted by (thread, counter) —
// the global timeline, whose consecutive same-thread pairs are the
// program-order chain edges (see chain).
type system struct {
	items map[int32]*locItems
	vars  []trace.TC
	locs  []*locSys
}

// buildSystem generates the Section 4.2 constraints from a log, grouped by
// location (deterministically, in location-ID order).
func buildSystem(log *trace.Log) *system {
	items := collectItems(log)
	ds := buildDense(items)
	sys := &system{items: items, vars: ds.x.vars}
	for li, loc := range ds.locIDs {
		ls := &locSys{loc: loc, conj: ds.locEdges(li)}
		for _, d := range ds.disj[ds.disjAt[li]:ds.disjAt[li+1]] {
			ls.disj = append(ls.disj, ds.x.tcDisj(d))
		}
		sys.locs = append(sys.locs, ls)
	}
	return sys
}

// chain returns the program-order edges between consecutive accesses of
// each thread — the hard edges the per-location constraints do not list.
func (s *system) chain() [][2]trace.TC { return chainEdges(s.vars) }

// has reports whether tc is a variable of the system.
func (s *system) has(tc trace.TC) bool {
	i := sort.Search(len(s.vars), func(i int) bool { return !tcLess(s.vars[i], tc) })
	return i < len(s.vars) && s.vars[i] == tc
}

// checkRules is the rule-reference schedule checker: the schedule must be a
// model of the log's whole constraint system. Order must be a permutation
// of the system's variables with Pos agreeing, every hard edge must hold,
// at least one disjunct of every disjunction must hold, and every range
// start must map to its recorded end in RangeEnd.
func checkRules(log *trace.Log, sched *Schedule) error {
	sys := buildSystem(log)
	if len(sched.Order) != len(sys.vars) {
		return fmt.Errorf("schedule has %d entries, system has %d variables", len(sched.Order), len(sys.vars))
	}
	pos := make(map[trace.TC]int, len(sched.Order))
	for i, tc := range sched.Order {
		if !sys.has(tc) {
			return fmt.Errorf("schedule entry %d (%+v) is not a system variable", i, tc)
		}
		if prev, dup := pos[tc]; dup {
			return fmt.Errorf("schedule repeats %+v at positions %d and %d", tc, prev, i)
		}
		pos[tc] = i
	}
	if len(sched.Pos) != len(sched.Order) {
		return fmt.Errorf("Pos has %d entries, Order has %d", len(sched.Pos), len(sched.Order))
	}
	for tc, p := range sched.Pos {
		if pos[tc] != p {
			return fmt.Errorf("Pos[%+v] = %d, Order says %d", tc, p, pos[tc])
		}
	}
	hard := sys.chain()
	for _, ls := range sys.locs {
		hard = append(hard, ls.conj...)
	}
	for _, e := range hard {
		if pos[e[0]] >= pos[e[1]] {
			return fmt.Errorf("hard edge violated: %+v < %+v but positions %d >= %d", e[0], e[1], pos[e[0]], pos[e[1]])
		}
	}
	for _, ls := range sys.locs {
		for _, d := range ls.disj {
			if pos[d.a1] >= pos[d.b1] && pos[d.a2] >= pos[d.b2] {
				return fmt.Errorf("location %d: neither %+v<%+v nor %+v<%+v holds", ls.loc, d.a1, d.b1, d.a2, d.b2)
			}
		}
	}
	for _, rg := range log.Ranges {
		start := trace.TC{Thread: rg.Thread, Counter: rg.Start}
		if end, ok := sched.RangeEnd[start]; !ok || end != rg.End {
			return fmt.Errorf("RangeEnd for %+v is %d (present %v), log says %d", start, end, ok, rg.End)
		}
	}
	return nil
}
