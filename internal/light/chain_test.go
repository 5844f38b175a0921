package light

import (
	"testing"

	"repro/internal/smt"
	"repro/internal/trace"
)

// TestChainCheckShapes pins the chain check (chainCheck.decided) on the
// shapes at its edges. Location 0 is the one under test; location 1, when
// present, only adds hard edges between the threads. Every row requires
// the decision the row names, and that the count and the ordered kept list
// equal the enumeration: a decided location's generated disjunctions are
// as many as decided counts and the sealed engine drops every one, and
// propagateLog agrees with the reference that registers every disjunction
// (diffPropagation, over buildDense).
func TestChainCheckShapes(t *testing.T) {
	threads := []string{"0", "0.1", "0.2", "0.3"}
	tc := func(t int32, c uint64) trace.TC { return trace.TC{Thread: t, Counter: c} }
	initial := trace.TC{Thread: trace.InitialThread}
	write := func(loc, t int32, start, end uint64) trace.Range {
		return trace.Range{Loc: loc, Thread: t, Start: start, End: end, W: tc(t, start), HasWrite: true}
	}
	rows := []struct {
		name    string
		log     *trace.Log
		decided bool
		unsat   bool
	}{
		{
			// Neither range reaches the other: rule C keeps their pair.
			name: "two concurrent intervals",
			log: &trace.Log{Threads: threads, Ranges: []trace.Range{
				write(0, 1, 1, 2), write(0, 2, 1, 2),
			}},
		},
		{
			// (1,1) < (1,2) -> (3,0) < (3,1) chains the singleton and
			// thread 3's range, but thread 2's read of (1,1) is unordered
			// with that range.
			name: "claim concurrent with the interval after its anchor",
			log: &trace.Log{Threads: threads,
				Deps: []trace.Dep{
					{Loc: 0, W: tc(1, 1), R: tc(2, 1)},
					{Loc: 1, W: tc(1, 2), R: tc(3, 0)},
				},
				Ranges: []trace.Range{write(0, 3, 1, 2)},
			},
		},
		{
			// Thread 2's range begins by reading (1,1), so it sits right
			// after its anchor; the claim must reach thread 3's range,
			// the first interval after its own.
			name: "range leading read right after its anchor",
			log: &trace.Log{Threads: threads,
				Deps: []trace.Dep{{Loc: 1, W: tc(2, 3), R: tc(3, 0)}},
				Ranges: []trace.Range{
					{Loc: 0, Thread: 2, Start: 1, End: 2, W: tc(1, 1), HasWrite: true, StartsWithRead: true},
					write(0, 3, 1, 2),
				},
			},
			decided: true,
		},
		{
			name: "only initial-value claims",
			log: &trace.Log{Threads: threads,
				Deps: []trace.Dep{
					{Loc: 0, W: initial, R: tc(1, 0)},
					{Loc: 0, W: initial, R: tc(3, 0)},
					{Loc: 1, W: tc(1, 3), R: tc(2, 0)},
				},
				Ranges: []trace.Range{write(0, 1, 1, 2), write(0, 2, 1, 2)},
			},
			decided: true,
		},
		{
			name: "single interval",
			log: &trace.Log{Threads: threads,
				Deps:   []trace.Dep{{Loc: 0, W: tc(1, 2), R: tc(2, 1)}, {Loc: 0, W: tc(1, 2), R: tc(3, 1)}},
				Ranges: []trace.Range{write(0, 1, 1, 2)},
			},
			decided: true,
		},
		{
			// (1,1) -> (2,0) < (2,1) -> (1,0) < (1,1) is a hard cycle. On a
			// sound engine this single-interval location would be decided.
			name: "unsat engine",
			log: &trace.Log{Threads: threads,
				Deps: []trace.Dep{
					{Loc: 0, W: tc(1, 1), R: tc(2, 0)},
					{Loc: 1, W: tc(2, 1), R: tc(1, 0)},
				},
			},
			unsat: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ds := newDenseSystem(collectItems(row.log))
			eng := smt.NewOrderEngine(ds.x.chainSizes())
			for _, e := range ds.hard {
				eng.AddEdge(e[0], e[1])
			}
			if acyclic := eng.Seal(); acyclic == row.unsat {
				t.Fatalf("Seal = %v, want %v", acyclic, !row.unsat)
			}
			li, _ := ds.x.loc(0)
			rcs, wbs := ds.locItemNodes(int(li))
			var c chainCheck
			n, ok := c.decided(rcs, wbs, eng)
			if ok != row.decided {
				t.Fatalf("decided = %v, want %v", ok, row.decided)
			}
			generated, kept := 0, 0
			genLocConstraints(rcs, wbs, nil, func(a1, b1, a2, b2 int32) {
				generated++
				if eng.AddDisjunction(smt.OrderDisjunction{A1: a1, B1: b1, A2: a2, B2: b2}) {
					kept++
				}
			})
			if ok && (n != generated || kept != 0) {
				t.Errorf("decided %d disjunctions; the enumeration generates %d and keeps %d", n, generated, kept)
			}
			if err := diffPropagation(row.log); err != nil {
				t.Error(err)
			}
		})
	}
}
