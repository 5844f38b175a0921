package light

import (
	"fmt"

	"repro/internal/trace"
)

// CheckSchedule is the standalone schedule checker: it rebuilds the full
// Section 4.2 constraint system from the log and validates that the
// schedule is a model of it, independently of whichever engine produced it.
// It verifies that
//
//   - Order is a permutation of the system's variables (nothing dropped,
//     nothing invented, no duplicates),
//   - Pos agrees with Order,
//   - every conjunctive (hard) edge holds in the order,
//   - at least one disjunct of every non-interference disjunction holds,
//   - every write-bearing range start is mapped by RangeEnd to its recorded
//     end (the Lemma 4.3 gating contract the replayer relies on).
//
// Every computed schedule must be checker-clean; the differential tests
// drive this across the workload sweep, the bug repros, and every log a
// fuzz campaign records.
func CheckSchedule(log *trace.Log, sched *Schedule) error {
	sys := buildSystem(log)

	if len(sched.Order) != len(sys.vars) {
		return fmt.Errorf("light: schedule has %d entries, system has %d variables", len(sched.Order), len(sys.vars))
	}
	pos := make(map[trace.TC]int, len(sched.Order))
	for i, tc := range sched.Order {
		if !sys.has(tc) {
			return fmt.Errorf("light: schedule entry %d (%+v) is not a system variable", i, tc)
		}
		if prev, dup := pos[tc]; dup {
			return fmt.Errorf("light: schedule repeats %+v at positions %d and %d", tc, prev, i)
		}
		pos[tc] = i
	}
	if len(sched.Pos) != len(sched.Order) {
		return fmt.Errorf("light: Pos has %d entries, Order has %d", len(sched.Pos), len(sched.Order))
	}
	for tc, p := range sched.Pos {
		if pos[tc] != p {
			return fmt.Errorf("light: Pos[%+v] = %d, Order says %d", tc, p, pos[tc])
		}
	}

	hard := func(edges [][2]trace.TC) error {
		for _, e := range edges {
			if pos[e[0]] >= pos[e[1]] {
				return fmt.Errorf("light: hard edge violated: %+v < %+v but positions %d >= %d",
					e[0], e[1], pos[e[0]], pos[e[1]])
			}
		}
		return nil
	}
	if err := hard(sys.chain()); err != nil {
		return err
	}
	i := 0 // global disjunction index, for the error message
	for _, ls := range sys.locs {
		if err := hard(ls.conj); err != nil {
			return err
		}
		for _, d := range ls.disj {
			ok1 := pos[d.a1] < pos[d.b1]
			ok2 := pos[d.a2] < pos[d.b2]
			if !ok1 && !ok2 {
				return fmt.Errorf("light: disjunction %d violated: neither %+v<%+v nor %+v<%+v holds",
					i, d.a1, d.b1, d.a2, d.b2)
			}
			i++
		}
	}

	for _, rg := range log.Ranges {
		end, ok := sched.RangeEnd[trace.TC{Thread: rg.Thread, Counter: rg.Start}]
		if !ok {
			return fmt.Errorf("light: range start %+v missing from RangeEnd", trace.TC{Thread: rg.Thread, Counter: rg.Start})
		}
		if end != rg.End {
			return fmt.Errorf("light: RangeEnd for thread %d start %d is %d, log says %d",
				rg.Thread, rg.Start, end, rg.End)
		}
	}
	return nil
}
