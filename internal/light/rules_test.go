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
func buildDense(items *itemSet) *denseRef {
	ds := &denseRef{denseSystem: newDenseSystem(items)}
	n := len(ds.x.locIDs)
	ds.disjAt = make([]int32, n+1)
	disj := func(a1, b1, a2, b2 int32) {
		ds.disj = append(ds.disj, smt.OrderDisjunction{A1: a1, B1: b1, A2: a2, B2: b2})
	}
	for li := range ds.x.locIDs {
		ds.disjAt[li] = int32(len(ds.disj))
		rcs, wbs := ds.locItemNodes(li)
		genLocConstraints(rcs, wbs, nil, disj)
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
	items *itemSet
	vars  []trace.TC
	locs  []*locSys
}

// buildSystem generates the Section 4.2 constraints from a log, grouped by
// location (deterministically, in location-ID order).
func buildSystem(log *trace.Log) *system {
	items := collectItems(log)
	ds := buildDense(items)
	sys := &system{items: items, vars: ds.x.vars}
	for li, loc := range ds.x.locIDs {
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

// locEdges returns location li's hard edges in TC form.
func (ds *denseSystem) locEdges(li int) [][2]trace.TC {
	v := ds.x.vars
	es := ds.hard[ds.hardAt[li]:ds.hardAt[li+1]]
	out := make([][2]trace.TC, len(es))
	for i, e := range es {
		out[i] = [2]trace.TC{v[e[0]], v[e[1]]}
	}
	return out
}

// tcDisj returns a node-ID disjunction in TC form.
func (x *counterIndex) tcDisj(d smt.OrderDisjunction) disjunction {
	v := x.vars
	return disjunction{a1: v[d.A1], b1: v[d.B1], a2: v[d.A2], b2: v[d.B2]}
}

// tcLess orders accesses by (thread, counter).
func tcLess(a, b trace.TC) bool {
	if a.Thread != b.Thread {
		return a.Thread < b.Thread
	}
	return a.Counter < b.Counter
}

// has reports whether tc is a variable of the system.
func (s *system) has(tc trace.TC) bool {
	i := sort.Search(len(s.vars), func(i int) bool { return !tcLess(s.vars[i], tc) })
	return i < len(s.vars) && s.vars[i] == tc
}

// checkRules is the rule-reference schedule checker: the schedule must be a
// model of the log's whole constraint system. Order must be a permutation
// of the system's variables, every hard edge must hold, and at least one
// disjunct of every disjunction must hold.
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
	return nil
}
