package smt

import (
	"math/rand"
	"testing"
)

// TestPigeonholeStyleUnsat: k+1 variables forced into k "slots" by strict
// chains plus an upper bound — a conflict-heavy unsat instance that
// exercises clause learning and backjumping.
func TestPigeonholeStyleUnsat(t *testing.T) {
	const k = 6
	p := NewProblem()
	lo := p.NewIntVar()
	hi := p.NewIntVar()
	p.Assert(Le(hi, lo, int64(k-1))) // hi - lo <= k-1: only k-1 units of room
	vars := make([]IntVar, k+1)
	for i := range vars {
		vars[i] = p.NewIntVar()
		p.Assert(Le(lo, vars[i], 0)) // lo <= x
		p.Assert(Le(vars[i], hi, 0)) // x <= hi
	}
	// All distinct via strict chain in SOME order: assert pairwise
	// disequality as (xi < xj) | (xj < xi).
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			p.Assert(Lt(vars[i], vars[j]), Lt(vars[j], vars[i]))
		}
	}
	res := p.Solve()
	if res.Status != Unsat {
		t.Fatalf("k+1 distinct values in a k-1 span must be unsat, got %v", res.Status)
	}
	if res.Stats.Conflicts == 0 {
		t.Error("expected a nontrivial search (zero conflicts recorded)")
	}
}

func TestPigeonholeStyleSatBoundary(t *testing.T) {
	// With exactly k units of room, k+1 distinct values fit.
	const k = 6
	p := NewProblem()
	lo := p.NewIntVar()
	hi := p.NewIntVar()
	p.Assert(Le(hi, lo, int64(k)))
	vars := make([]IntVar, k+1)
	for i := range vars {
		vars[i] = p.NewIntVar()
		p.Assert(Le(lo, vars[i], 0))
		p.Assert(Le(vars[i], hi, 0))
	}
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			p.Assert(Lt(vars[i], vars[j]), Lt(vars[j], vars[i]))
		}
	}
	res := p.Solve()
	if res.Status != Sat {
		t.Fatalf("boundary instance should be sat, got %v", res.Status)
	}
	seen := map[int64]bool{}
	for _, v := range vars {
		val := res.Values[v]
		if seen[val] {
			t.Fatalf("model assigns duplicate value %d", val)
		}
		seen[val] = true
		if val < res.Values[lo] || val > res.Values[hi] {
			t.Fatalf("value %d outside [%d,%d]", val, res.Values[lo], res.Values[hi])
		}
	}
}

// TestRandomOrderInstances mimics schedule-shaped problems at a larger
// scale than the brute-force comparison allows: a base chain per "thread"
// plus random cross-thread dependences and non-interference disjunctions;
// sat answers must satisfy every asserted constraint.
func TestRandomOrderInstances(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 1))
		p := NewProblem()
		const threads = 4
		const perThread = 30
		vars := make([][]IntVar, threads)
		for th := range vars {
			vars[th] = make([]IntVar, perThread)
			for i := range vars[th] {
				vars[th][i] = p.NewIntVar()
				if i > 0 {
					p.AssertLt(vars[th][i-1], vars[th][i])
				}
			}
		}
		type atom struct{ a, b IntVar }
		var asserted []atom
		for e := 0; e < 40; e++ {
			t1, t2 := r.Intn(threads), r.Intn(threads)
			i1, i2 := r.Intn(perThread), r.Intn(perThread)
			if t1 == t2 {
				continue
			}
			// Dependence edge (always satisfiable: cross-thread).
			p.AssertLt(vars[t1][i1], vars[t2][i2])
			asserted = append(asserted, atom{vars[t1][i1], vars[t2][i2]})
		}
		res := p.Solve()
		if res.Status == Unsat {
			// Random cross edges can form cycles; that is a legal outcome,
			// but it must be a real cycle: re-check with a fresh problem
			// using only the chain constraints, which must be sat.
			q := NewProblem()
			fresh := make([][]IntVar, threads)
			for th := range fresh {
				fresh[th] = make([]IntVar, perThread)
				for i := range fresh[th] {
					fresh[th][i] = q.NewIntVar()
					if i > 0 {
						q.AssertLt(fresh[th][i-1], fresh[th][i])
					}
				}
			}
			if q.Solve().Status != Sat {
				t.Fatal("chains alone unsat")
			}
			continue
		}
		for _, a := range asserted {
			if !(res.Values[a.a] < res.Values[a.b]) {
				t.Fatalf("trial %d: model violates asserted edge", trial)
			}
		}
	}
}
