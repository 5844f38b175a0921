package smt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSimpleSatChain(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar()
	b := p.NewIntVar()
	c := p.NewIntVar()
	p.AssertLt(a, b)
	p.AssertLt(b, c)
	res := p.Solve()
	if res.Status != Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	if !(res.Values[a] < res.Values[b] && res.Values[b] < res.Values[c]) {
		t.Errorf("model %v violates a<b<c", res.Values)
	}
}

func TestSimpleUnsatCycle(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar()
	b := p.NewIntVar()
	c := p.NewIntVar()
	p.AssertLt(a, b)
	p.AssertLt(b, c)
	p.AssertLt(c, a)
	if res := p.Solve(); res.Status != Unsat {
		t.Fatalf("status = %v, want unsat", res.Status)
	}
}

func TestNonStrictBounds(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar()
	b := p.NewIntVar()
	p.Assert(Le(a, b, 5))  // a - b <= 5
	p.Assert(Le(b, a, -5)) // b - a <= -5, i.e. a - b >= 5
	res := p.Solve()
	if res.Status != Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	if res.Values[a]-res.Values[b] != 5 {
		t.Errorf("a-b = %d, want exactly 5", res.Values[a]-res.Values[b])
	}
}

func TestTightUnsat(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar()
	b := p.NewIntVar()
	p.Assert(Le(a, b, 4))
	p.Assert(Le(b, a, -5))
	if res := p.Solve(); res.Status != Unsat {
		t.Fatalf("status = %v, want unsat", res.Status)
	}
}

func TestDisjunctionForcesChoice(t *testing.T) {
	// The schedule-shaped constraint: two deps on one location must not
	// interleave: (r2 < w1) or (r1 < w2), with each dep ordered.
	p := NewProblem()
	w1 := p.NewIntVar()
	r1 := p.NewIntVar()
	w2 := p.NewIntVar()
	r2 := p.NewIntVar()
	p.AssertLt(w1, r1)
	p.AssertLt(w2, r2)
	p.Assert(Lt(r2, w1), Lt(r1, w2))
	// Force the first disjunct to be impossible: w1 < w2.
	p.AssertLt(w1, w2)
	p.AssertLt(w2, r1) // now r1 < w2 impossible too? r1 > w2, so need r2 < w1 — contradiction with w1<w2<r2
	if res := p.Solve(); res.Status != Unsat {
		t.Fatalf("status = %v, want unsat", res.Status)
	}

	// Relax: drop the last constraint; now r1 < w2 must be chosen.
	p2 := NewProblem()
	w1, r1 = p2.NewIntVar(), p2.NewIntVar()
	w2, r2 = p2.NewIntVar(), p2.NewIntVar()
	p2.AssertLt(w1, r1)
	p2.AssertLt(w2, r2)
	p2.Assert(Lt(r2, w1), Lt(r1, w2))
	p2.AssertLt(w1, w2)
	res := p2.Solve()
	if res.Status != Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	v := res.Values
	if !(v[r1] < v[w2] || v[r2] < v[w1]) {
		t.Errorf("model %v violates the disjunction", v)
	}
}

func TestPaperSection42Example(t *testing.T) {
	// The running constraint example of Section 4.2: deps c4→c5, c1→c6,
	// c3→c2; non-interference on x: O(c5)<O(c1) or O(c6)<O(c4); thread
	// orders O(c1)<O(c2) and O(c3)<O(c4)<O(c5)<O(c6).
	p := NewProblem()
	c := make([]IntVar, 7)
	for i := 1; i <= 6; i++ {
		c[i] = p.NewIntVar()
	}
	p.AssertLt(c[4], c[5])
	p.AssertLt(c[1], c[6])
	p.AssertLt(c[3], c[2])
	p.Assert(Lt(c[5], c[1]), Lt(c[6], c[4]))
	p.AssertLt(c[1], c[2])
	p.AssertLt(c[3], c[4])
	p.AssertLt(c[4], c[5])
	p.AssertLt(c[5], c[6])
	res := p.Solve()
	if res.Status != Sat {
		t.Fatalf("status = %v, want sat", res.Status)
	}
	v := res.Values
	// The paper derives c3 < c4 < c5 < c1 < c2 (and c6 last).
	if !(v[c[5]] < v[c[1]]) {
		t.Errorf("model %v should schedule c5 before c1", v)
	}
	order := SortByValue(v)
	if len(order) != 6 {
		t.Errorf("order has %d vars", len(order))
	}
}

func TestConstants(t *testing.T) {
	p := NewProblem()
	p.Assert()
	if res := p.Solve(); res.Status != Unsat {
		t.Errorf("empty clause sat")
	}
	p2 := NewProblem()
	a := p2.NewIntVar()
	p2.Assert(Lt(a, a))
	if res := p2.Solve(); res.Status != Unsat {
		t.Errorf("x<x sat")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	if res := p.Solve(); res.Status != Sat {
		t.Errorf("empty problem unsat")
	}
}

func TestLongChainPerformance(t *testing.T) {
	p := NewProblem()
	const n = 5000
	vars := make([]IntVar, n)
	for i := range vars {
		vars[i] = p.NewIntVar()
	}
	for i := 0; i+1 < n; i++ {
		p.AssertLt(vars[i], vars[i+1])
	}
	res := p.Solve()
	if res.Status != Sat {
		t.Fatalf("chain unsat")
	}
	for i := 0; i+1 < n; i++ {
		if res.Values[vars[i]] >= res.Values[vars[i+1]] {
			t.Fatalf("chain violated at %d", i)
		}
	}
}

// --- Randomized validation against a brute-force oracle ---

// bruteForce enumerates all assignments to the atoms and checks difference-
// constraint consistency by Bellman-Ford, returning whether any assignment
// of the clause set is consistent.
func bruteForce(nInts int, atoms []Atom, clauses [][]int) bool {
	n := len(atoms)
	if n > 20 {
		panic("bruteForce: too many atoms")
	}
	for mask := 0; mask < 1<<n; mask++ {
		okClauses := true
		for _, cl := range clauses {
			sat := false
			for _, sl := range cl {
				i := sl
				want := true
				if i < 0 {
					i = -i - 1
					want = false
				}
				if (mask>>i)&1 == 1 == want {
					sat = true
					break
				}
			}
			if !sat {
				okClauses = false
				break
			}
		}
		if !okClauses {
			continue
		}
		// Check difference consistency with Bellman-Ford.
		var edges []dlEdge
		for i, a := range atoms {
			e := a
			if (mask>>i)&1 == 0 {
				e = a.negated()
			}
			edges = append(edges, dlEdge{from: int32(e.Y), to: int32(e.X), w: e.K})
		}
		if !hasNegCycle(nInts, edges) {
			return true
		}
	}
	return false
}

func hasNegCycle(n int, edges []dlEdge) bool {
	dist := make([]int64, n)
	for i := 0; i < n; i++ {
		changed := false
		for _, e := range edges {
			if dist[e.from]+e.w < dist[e.to] {
				dist[e.to] = dist[e.from] + e.w
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	// One more round: any further relaxation means a negative cycle.
	for _, e := range edges {
		if dist[e.from]+e.w < dist[e.to] {
			return true
		}
	}
	return false
}

func TestRandomAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nInts := 2 + r.Intn(4)
		nAtoms := 1 + r.Intn(8)
		atoms := make([]Atom, nAtoms)
		for i := range atoms {
			x := IntVar(r.Intn(nInts))
			y := IntVar(r.Intn(nInts))
			for y == x {
				y = IntVar(r.Intn(nInts))
			}
			atoms[i] = Atom{X: x, Y: y, K: int64(r.Intn(7) - 3)}
		}
		nClauses := 1 + r.Intn(6)
		clauses := make([][]int, nClauses)
		for i := range clauses {
			width := 1 + r.Intn(3)
			cl := make([]int, width)
			for j := range cl {
				a := r.Intn(nAtoms)
				if r.Intn(2) == 0 {
					cl[j] = a
				} else {
					cl[j] = -a - 1
				}
			}
			clauses[i] = cl
		}

		// Build the same problem via the public API.
		p := NewProblem()
		vars := make([]IntVar, nInts)
		for i := range vars {
			vars[i] = p.NewIntVar()
		}
		for _, cl := range clauses {
			disj := make([]Atom, len(cl))
			for j, sl := range cl {
				i := sl
				neg := false
				if i < 0 {
					i = -i - 1
					neg = true
				}
				a := atoms[i]
				if neg {
					// The negation of x - y <= k is y - x <= -k-1.
					disj[j] = Le(vars[a.Y], vars[a.X], -a.K-1)
				} else {
					disj[j] = Le(vars[a.X], vars[a.Y], a.K)
				}
			}
			p.Assert(disj...)
		}
		res := p.Solve()
		want := bruteForce(nInts, atoms, clauses)
		if (res.Status == Sat) != want {
			t.Logf("seed %d: solver=%v oracle sat=%v", seed, res.Status, want)
			return false
		}
		if res.Status == Sat {
			// Model must satisfy every clause's chosen semantics.
			for _, cl := range clauses {
				ok := false
				for _, sl := range cl {
					i := sl
					neg := false
					if i < 0 {
						i = -i - 1
						neg = true
					}
					a := atoms[i]
					holds := res.Values[vars[a.X]]-res.Values[vars[a.Y]] <= a.K
					if holds != neg {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("seed %d: model violates clause", seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	p := NewProblem()
	a := p.NewIntVar()
	b := p.NewIntVar()
	p.Assert(Lt(a, b), Lt(b, a))
	res := p.Solve()
	if res.Status != Sat {
		t.Fatal("unsat")
	}
	if res.Stats.Vars == 0 {
		t.Errorf("stats vars = 0")
	}
}
