// Command solver uses the Integer Difference Logic SMT solver directly on the
// paper's Section 4.2 scheduling example — the constraint system Light
// builds from three recorded flow dependences — and prints the computed
// replay order.
//
//	go run ./examples/solver
package main

import (
	"fmt"
	"log"

	"repro/internal/smt"
)

func main() {
	// The record run of Section 4.2:
	//      t1              t2
	//                      c3: W(y)
	//                      c4: W(x)
	//                      c5: R(x)
	//      c1: W(x)
	//      c2: R(y)
	//                      c6: R(x)
	// Recorded flow dependences: c4->c5, c1->c6, c3->c2.
	p := smt.NewProblem()
	names := map[smt.IntVar]string{}
	mk := func(n string) smt.IntVar {
		v := p.NewIntVar()
		names[v] = n
		return v
	}
	c1, c2 := mk("c1:W(x)"), mk("c2:R(y)")
	c3, c4, c5, c6 := mk("c3:W(y)"), mk("c4:W(x)"), mk("c5:R(x)"), mk("c6:R(x)")

	// Flow dependences (Equation 1, first conjunct).
	p.AssertLt(c4, c5)
	p.AssertLt(c1, c6)
	p.AssertLt(c3, c2)
	// Non-interference of the two dependences on x (second conjunct):
	// O(c5) < O(c1) or O(c6) < O(c4).
	p.Assert(smt.Lt(c5, c1), smt.Lt(c6, c4))
	// Thread-local program orders.
	p.AssertLt(c1, c2)
	p.AssertLt(c3, c4)
	p.AssertLt(c4, c5)
	p.AssertLt(c5, c6)

	res := p.Solve()
	if res.Status != smt.Sat {
		log.Fatalf("unexpected %v", res.Status)
	}
	fmt.Println("satisfiable; replay order:")
	for i, v := range smt.SortByValue(res.Values) {
		fmt.Printf("  %d. %s\n", i+1, names[v])
	}
	fmt.Printf("\nsolver: %d decisions, %d conflicts, %d theory checks\n",
		res.Stats.Decisions, res.Stats.Conflicts, res.Stats.TheoryChecks)

	// The paper notes the schedule c3 c4 c5 c1 c2 c6 preserves all three
	// dependences even though it differs from the original run.
	fmt.Println("\nadding O(c6) < O(c4) as well forces the other disjunct:")
	p2 := smt.NewProblem()
	d1, d2 := p2.NewIntVar(), p2.NewIntVar() // w1, r1
	e1, e2 := p2.NewIntVar(), p2.NewIntVar() // w2, r2
	p2.AssertLt(d1, d2)
	p2.AssertLt(e1, e2)
	p2.Assert(smt.Lt(e2, d1), smt.Lt(d2, e1))
	p2.AssertLt(d1, e1) // w1 before w2: only r1 < w2 remains
	res2 := p2.Solve()
	fmt.Printf("status: %v; r1 scheduled before w2: %v\n",
		res2.Status, res2.Values[d2] < res2.Values[e1])
}
