// Package smt implements a small DPLL(T) SMT solver for Integer Difference
// Logic (IDL): conjunctions of clauses over atoms of the form x - y <= k on
// integer variables. This is exactly the fragment the paper discharges to
// Z3 for replay-schedule computation ("our modeling is efficiently solved
// via the Integer Difference Logic theory provided by Z3", Section 5.1):
// unit order atoms plus binary non-interference disjunctions. The
// architecture is standard: clauses of difference atoms, one SAT variable
// per atom (complementary atoms share it), a CDCL SAT core with
// two-literal watching, VSIDS and first-UIP learning, and a
// difference-logic theory solver based on incremental negative-cycle
// detection, attached lazily to the SAT trail.
package smt

import "sort"

// IntVar names an integer variable in the difference logic.
type IntVar int32

// Atom is the difference atom x - y <= K.
type Atom struct {
	X, Y IntVar
	K    int64
}

// Le builds the atom x - y <= k. Its negation is the complementary atom
// y - x <= -k-1, Le(y, x, -k-1).
func Le(x, y IntVar, k int64) Atom { return Atom{X: x, Y: y, K: k} }

// Lt builds x < y (i.e., x - y <= -1), the strict order atom used for
// schedule constraints.
func Lt(x, y IntVar) Atom { return Atom{X: x, Y: y, K: -1} }

// Negation of x - y <= k is y - x <= -k-1.
func (a Atom) negated() Atom { return Atom{X: a.Y, Y: a.X, K: -a.K - 1} }

// Problem accumulates clauses of difference atoms and solves them.
type Problem struct {
	nextInt  IntVar
	atomVars map[Atom]int // canonical atom -> SAT variable
	atoms    []Atom       // SAT variable -> atom
	clauses  [][]Lit
	seeded   int64 // SeedLt assertions (propagation-proved literals)
	unsat    bool  // an empty clause was asserted
}

// NewProblem creates an empty problem.
func NewProblem() *Problem {
	return &Problem{atomVars: make(map[Atom]int)}
}

// NewIntVar allocates a fresh integer variable.
func (p *Problem) NewIntVar() IntVar {
	v := p.nextInt
	p.nextInt++
	return v
}

// Assert adds a clause: at least one of its atoms must hold. The empty
// clause makes the problem unsatisfiable.
func (p *Problem) Assert(clause ...Atom) {
	if len(clause) == 0 {
		p.unsat = true
		return
	}
	lits := make([]Lit, len(clause))
	for i, a := range clause {
		lits[i] = p.atomLit(a)
	}
	p.clauses = append(p.clauses, lits)
}

// AssertLt asserts x < y directly (the hot path for schedule constraints).
func (p *Problem) AssertLt(x, y IntVar) { p.Assert(Lt(x, y)) }

// SeedLt asserts x < y as a propagation-proved seed literal. Semantically it
// is AssertLt — a unit constraint the search must honor — but it is counted
// separately in Stats.Seeded so callers can tell how much of a problem was
// decided before the CDCL(T) search started. Soundness contract: the caller
// must only seed literals implied by the rest of the problem (every model
// satisfies them), so seeding restricts the search without excluding any
// model; the two-tier schedule engine's propagation pass guarantees this.
func (p *Problem) SeedLt(x, y IntVar) {
	p.seeded++
	p.Assert(Lt(x, y))
}

// atomLit returns the SAT literal equivalent to atom a, canonicalizing
// complementary atoms onto one variable (¬(x-y<=k) == y-x<=-k-1).
func (p *Problem) atomLit(a Atom) Lit {
	if v, ok := p.atomVars[a]; ok {
		return MkLit(v, false)
	}
	if v, ok := p.atomVars[a.negated()]; ok {
		return MkLit(v, true)
	}
	v := len(p.atoms)
	p.atoms = append(p.atoms, a)
	p.atomVars[a] = v
	return MkLit(v, false)
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	// Values holds the integer model when Status == Sat.
	Values map[IntVar]int64
	// Stats carries solver statistics for benchmarking.
	Stats Stats
}

// Stats are solver counters.
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64
	TheoryChecks int64
	Restarts     int64
	Clauses      int
	Vars         int
	// Seeded counts SeedLt unit literals the caller proved before search.
	Seeded int64
}

// Solve runs the DPLL(T) search over the asserted clauses.
func (p *Problem) Solve() Result {
	if p.unsat {
		return Result{Status: Unsat}
	}
	th := newDiffTheory(int(p.nextInt), p.atoms)
	s := newSolver(len(p.atoms), th)
	for _, lits := range p.clauses {
		s.addClause(lits)
	}
	st := s.solve()
	res := Result{Status: st, Stats: s.stats}
	res.Stats.Clauses = len(p.clauses)
	res.Stats.Vars = len(p.atoms)
	res.Stats.Seeded = p.seeded
	if st == Sat {
		res.Values = th.model(p.nextInt)
	}
	return res
}

// SortByValue returns the variables ordered by their model values (ties
// broken by variable index), which linearizes a satisfying schedule.
func SortByValue(values map[IntVar]int64) []IntVar {
	vars := make([]IntVar, 0, len(values))
	for v := range values {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if values[a] != values[b] {
			return values[a] < values[b]
		}
		return a < b
	})
	return vars
}
