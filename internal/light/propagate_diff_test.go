package light

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/smt"
	"repro/internal/trace"
)

// diffPropagation checks the two-pass propagation of a log's system
// (propagateLog: disjunctions the hard order settles are never
// registered, and a location the chain check decides generates none)
// against a reference that materializes every disjunction
// (buildDense), registers all of them in one fresh engine and propagates.
// Both must agree on the disjunction count, Resolved, the Forced sequence
// and the Residual disjunctions with their locations, in order.
func diffPropagation(log *trace.Log) error {
	got, err := propagateLog(log)

	ds := buildDense(collectItems(log))
	eng := smt.NewOrderEngine(ds.x.chainSizes())
	for _, e := range ds.hard {
		eng.AddEdge(e[0], e[1])
	}
	for _, d := range ds.disj {
		eng.AddDisjunction(d)
	}
	ref := eng.Propagate()
	if ref.Unsat != (err != nil) {
		return fmt.Errorf("reference unsat=%v, two-pass error %v", ref.Unsat, err)
	}
	if ref.Unsat {
		return nil
	}
	if got.nDisj != len(ds.disj) {
		return fmt.Errorf("disjunctions: %d, reference %d", got.nDisj, len(ds.disj))
	}
	if got.out.Resolved != ref.Resolved {
		return fmt.Errorf("resolved: %d, reference %d", got.out.Resolved, ref.Resolved)
	}
	tcEdges := func(x *counterIndex, es [][2]int32) [][2]trace.TC {
		out := make([][2]trace.TC, len(es))
		for i, e := range es {
			out[i] = [2]trace.TC{x.vars[e[0]], x.vars[e[1]]}
		}
		return out
	}
	if g, w := tcEdges(got.ds.x, got.out.Forced), tcEdges(ds.x, ref.Forced); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("forced edges differ: %d, reference %d", len(g), len(w))
	}
	type residual struct {
		loc int32
		d   disjunction
	}
	var g, w []residual
	for _, di := range got.out.Residual {
		g = append(g, residual{got.ds.x.locIDs[got.keptLoc[di]], got.ds.x.tcDisj(got.eng.Disjunction(di))})
	}
	for _, di := range ref.Residual {
		li := sort.Search(len(ds.x.locIDs), func(li int) bool { return ds.disjAt[li+1] > di })
		w = append(w, residual{ds.x.locIDs[li], ds.x.tcDisj(ds.disj[di])})
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("residual disjunctions differ: %v, reference %v", g, w)
	}
	return nil
}

// TestPropagationMatchesDense runs the propagation differential on every
// golden log.
func TestPropagationMatchesDense(t *testing.T) {
	for _, src := range goldenSources() {
		if err := diffPropagation(loadGoldenLog(t, src)); err != nil {
			t.Errorf("%s: %v", src.name, err)
		}
	}
}
