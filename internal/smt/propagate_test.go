package smt

import (
	"reflect"
	"testing"
)

// TestOrderEngineReachability checks chain-implicit and cross-edge
// reachability over two chains.
func TestOrderEngineReachability(t *testing.T) {
	// chain 0: n0 n1 n2 ; chain 1: n3 n4 n5
	e := NewOrderEngine([]int{3, 3})
	e.AddEdge(e.Node(0, 1), e.Node(1, 1)) // n1 < n4
	out := e.Propagate()
	if out.Unsat {
		t.Fatal("unexpected unsat")
	}
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 0, true},  // reflexive
		{0, 2, true},  // chain
		{2, 0, false}, // chain reverse
		{0, 4, true},  // via n1 < n4
		{0, 5, true},  // via n1 < n4 then chain
		{1, 3, false},
		{3, 0, false},
		{4, 2, false},
	}
	for _, c := range cases {
		if got := e.Reaches(c.u, c.v); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// TestOrderEngineHardCycle checks that contradictory hard edges are
// reported as unsat.
func TestOrderEngineHardCycle(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	e.AddEdge(e.Node(0, 1), e.Node(1, 0)) // chain0 end < chain1 start
	e.AddEdge(e.Node(1, 1), e.Node(0, 0)) // chain1 end < chain0 start
	if out := e.Propagate(); !out.Unsat {
		t.Fatal("expected unsat from hard cycle")
	}
}

// TestOrderEngineUnitPropagation checks the core fast-path move: a
// disjunction with one disjunct contradicted by the partial order forces
// the other, and forcing cascades.
func TestOrderEngineUnitPropagation(t *testing.T) {
	// chains: a0 a1 | b0 b1 | c0 c1 | d0 d1
	e := NewOrderEngine([]int{2, 2, 2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	c1 := e.Node(2, 1)
	d0, d1 := e.Node(3, 0), e.Node(3, 1)
	e.AddEdge(a1, b0) // a before b (hard)
	// (b0 < a0) or (c1 < d0): first disjunct contradicted (a0 < a1 < b0),
	// and the second is genuinely free, so it must be forced.
	e.AddDisjunction(OrderDisjunction{A1: b0, B1: a0, A2: c1, B2: d0})
	// Cascade: once c1 < d0 is forced, (d0 < c1) or (b1 < d0) forces b1 < d0.
	e.AddDisjunction(OrderDisjunction{A1: d0, B1: c1, A2: b1, B2: d0})
	out := e.Propagate()
	if out.Unsat {
		t.Fatal("unexpected unsat")
	}
	if out.Resolved != 2 || len(out.Residual) != 0 {
		t.Fatalf("resolved=%d residual=%v, want 2 resolved, none residual", out.Resolved, out.Residual)
	}
	wantForced := [][2]int32{{c1, d0}, {b1, d0}}
	if !reflect.DeepEqual(out.Forced, wantForced) {
		t.Fatalf("forced=%v want %v", out.Forced, wantForced)
	}
	if !e.Reaches(a0, d1) {
		t.Error("a0 should reach d1 after forcing")
	}
}

// TestOrderEngineImpliedDisjunctDropped checks that a disjunction already
// satisfied by the partial order is resolved without forcing anything.
func TestOrderEngineImpliedDisjunctDropped(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0 := e.Node(1, 0)
	e.AddEdge(a1, b0)
	e.AddDisjunction(OrderDisjunction{A1: a0, B1: b0, A2: b0, B2: a0})
	out := e.Propagate()
	if out.Unsat || out.Resolved != 1 || len(out.Forced) != 0 || len(out.Residual) != 0 {
		t.Fatalf("got %+v, want 1 resolved, no forced, no residual", out)
	}
}

// TestOrderEngineResidual checks that a genuinely free disjunction stays
// residual.
func TestOrderEngineResidual(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0 := e.Node(0, 0)
	b0 := e.Node(1, 0)
	e.AddDisjunction(OrderDisjunction{A1: a0, B1: b0, A2: b0, B2: a0})
	out := e.Propagate()
	if out.Unsat || out.Resolved != 0 || len(out.Residual) != 1 || out.Residual[0] != 0 {
		t.Fatalf("got %+v, want the single disjunction residual", out)
	}
}

// TestOrderEngineDisjunctionUnsat checks that a disjunction with both
// disjuncts contradicted reports unsat.
func TestOrderEngineDisjunctionUnsat(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	e.AddEdge(a0, b0)
	e.AddEdge(b1, a1) // interleaved: a0 < b0, b1 < a1
	// (b1 < a0) or (a1 < b0): both contradicted.
	e.AddDisjunction(OrderDisjunction{A1: b1, B1: a0, A2: a1, B2: b0})
	if out := e.Propagate(); !out.Unsat {
		t.Fatal("expected unsat")
	}
}

// TestOrderEngineTopoOrder checks determinism and extra-edge handling of the
// final topological sort.
func TestOrderEngineTopoOrder(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	if out := e.Propagate(); out.Unsat {
		t.Fatal("unexpected unsat")
	}
	// No constraints: smallest-ID-first order.
	got, ok := e.TopoOrder(nil)
	if !ok || !reflect.DeepEqual(got, []int32{a0, a1, b0, b1}) {
		t.Fatalf("topo = %v ok=%v", got, ok)
	}
	// Extra edges b1 < a0 flip the interleaving.
	got, ok = e.TopoOrder([][2]int32{{b1, a0}})
	if !ok || !reflect.DeepEqual(got, []int32{b0, b1, a0, a1}) {
		t.Fatalf("topo with extra = %v ok=%v", got, ok)
	}
	// A cyclic extension is reported, not silently truncated.
	if _, ok := e.TopoOrder([][2]int32{{a1, b0}, {b1, a0}}); ok {
		t.Fatal("expected cycle detection")
	}
}

// TestOrderEngineIncrementalRepair checks that a forced-edge insertion
// repairs reachability of upstream nodes (backward propagation).
func TestOrderEngineIncrementalRepair(t *testing.T) {
	// Three chains of 3; hard edge from c0's end to c1's start; a disjunction
	// forces c1's end before c2's start; then c0's head must reach c2's tail.
	e := NewOrderEngine([]int{3, 3, 3})
	e.AddEdge(e.Node(0, 2), e.Node(1, 0))
	// (c2_0 < c1_0) or (c1_2 < c2_0); first contradicted via hard edge below.
	e.AddEdge(e.Node(1, 0), e.Node(2, 0))
	e.AddDisjunction(OrderDisjunction{A1: e.Node(2, 0), B1: e.Node(1, 0), A2: e.Node(1, 2), B2: e.Node(2, 0)})
	out := e.Propagate()
	if out.Unsat || len(out.Forced) != 1 {
		t.Fatalf("got %+v, want one forced edge", out)
	}
	if !e.Reaches(e.Node(0, 0), e.Node(2, 2)) {
		t.Error("repair did not propagate to chain-0 head")
	}
}

// TestOrderEngineSealReaches checks that Seal alone makes the hard order
// queryable, before any propagation.
func TestOrderEngineSealReaches(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	e.AddEdge(a1, b0)
	if !e.Seal() {
		t.Fatal("Seal reported a cycle")
	}
	if !e.Reaches(a0, b1) || e.Reaches(b0, a1) {
		t.Error("sealed reachability wrong")
	}
}

// TestOrderEngineSealHardCycle checks that Seal reports contradictory hard
// edges and Propagate then reports unsat.
func TestOrderEngineSealHardCycle(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	e.AddEdge(e.Node(0, 1), e.Node(1, 0))
	e.AddEdge(e.Node(1, 1), e.Node(0, 0))
	if e.Seal() {
		t.Fatal("Seal accepted a hard cycle")
	}
	if e.AddDisjunction(OrderDisjunction{A1: e.Node(0, 0), B1: e.Node(1, 1), A2: e.Node(1, 0), B2: e.Node(0, 1)}) {
		t.Error("disjunction kept on a contradictory engine")
	}
	if out := e.Propagate(); !out.Unsat {
		t.Fatal("expected unsat after a failed Seal")
	}
}

// TestOrderEngineSealMisuse checks that a hard edge after Seal and a second
// Propagate both panic.
func TestOrderEngineSealMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewOrderEngine([]int{2, 2})
	e.Seal()
	mustPanic("AddEdge after Seal", func() { e.AddEdge(e.Node(0, 0), e.Node(1, 0)) })
	e.Propagate()
	mustPanic("second Propagate", func() { e.Propagate() })
}

// TestOrderEngineSealDropsImplied checks that after Seal a disjunction with
// an implied disjunct is dropped on registration and counted in Resolved,
// while an open one is kept under the next index.
func TestOrderEngineSealDropsImplied(t *testing.T) {
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	e.AddEdge(a0, b0)
	e.Seal()
	if e.AddDisjunction(OrderDisjunction{A1: b1, B1: a1, A2: a0, B2: b1}) {
		t.Error("implied disjunction kept")
	}
	open := OrderDisjunction{A1: a1, B1: b1, A2: b1, B2: a1}
	if !e.AddDisjunction(open) {
		t.Fatal("open disjunction dropped")
	}
	if e.Disjunction(0) != open {
		t.Errorf("kept disjunction 0 = %+v, want %+v", e.Disjunction(0), open)
	}
	out := e.Propagate()
	if out.Unsat || out.Resolved != 1 || !reflect.DeepEqual(out.Residual, []int32{0}) {
		t.Fatalf("got %+v, want 1 resolved and residual [0]", out)
	}
}

// TestOrderEngineAddImplied checks that disjunctions counted with
// AddImplied join the dropped ones in Resolved, and that counting before
// Seal or after Propagate panics.
func TestOrderEngineAddImplied(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewOrderEngine([]int{2, 2})
	a0, a1 := e.Node(0, 0), e.Node(0, 1)
	b0, b1 := e.Node(1, 0), e.Node(1, 1)
	e.AddEdge(a1, b0)
	mustPanic("AddImplied before Seal", func() { e.AddImplied(1) })
	e.Seal()
	if !e.Implied(a0, b1) || e.Implied(b1, a0) || e.Implied(a0, a0) {
		t.Error("Implied disagrees with the sealed hard order")
	}
	e.AddImplied(3)
	if e.AddDisjunction(OrderDisjunction{A1: a1, B1: b0, A2: b1, B2: a0}) {
		t.Error("implied disjunction kept")
	}
	if out := e.Propagate(); out.Resolved != 4 || len(out.Residual) != 0 {
		t.Fatalf("got %+v, want 4 resolved and no residual", out)
	}
	mustPanic("AddImplied after Propagate", func() { e.AddImplied(1) })
}
