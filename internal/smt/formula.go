// Package smt implements a small DPLL(T) SMT solver for Integer Difference
// Logic (IDL): boolean combinations of atoms of the form x - y <= k over
// integer variables. This is exactly the fragment the paper discharges to
// Z3 for replay-schedule computation ("our modeling is efficiently solved
// via the Integer Difference Logic theory provided by Z3", Section 5.1).
// The architecture is standard: a Tseitin transformation to CNF, a CDCL SAT
// core with two-literal watching, VSIDS and first-UIP learning, and a
// difference-logic theory solver based on incremental negative-cycle
// detection, attached lazily to the SAT trail.
package smt

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is a boolean formula over difference atoms.
type Expr interface {
	exprNode()
}

// boolExpr is a constant.
type boolExpr bool

// atomExpr is x - y <= K.
type atomExpr struct {
	X, Y IntVar
	K    int64
}

type notExpr struct{ X Expr }

type andExpr struct{ Xs []Expr }

type orExpr struct{ Xs []Expr }

func (boolExpr) exprNode() {}
func (atomExpr) exprNode() {}
func (notExpr) exprNode()  {}
func (andExpr) exprNode()  {}
func (orExpr) exprNode()   {}

// True and False are the boolean constants.
var (
	True  Expr = boolExpr(true)
	False Expr = boolExpr(false)
)

// IntVar names an integer variable in the difference logic.
type IntVar int32

// Le builds the atom x - y <= k.
func Le(x, y IntVar, k int64) Expr { return atomExpr{X: x, Y: y, K: k} }

// Lt builds x < y (i.e., x - y <= -1), the strict order atom used for
// schedule constraints.
func Lt(x, y IntVar) Expr { return atomExpr{X: x, Y: y, K: -1} }

// Not negates a formula.
func Not(x Expr) Expr { return notExpr{X: x} }

// And conjoins formulas; And() is True.
func And(xs ...Expr) Expr { return andExpr{Xs: xs} }

// Or disjoins formulas; Or() is False.
func Or(xs ...Expr) Expr { return orExpr{Xs: xs} }

// ExprString renders a formula for diagnostics.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case boolExpr:
		if e {
			return "true"
		}
		return "false"
	case atomExpr:
		if e.K == -1 {
			return fmt.Sprintf("v%d < v%d", e.X, e.Y)
		}
		return fmt.Sprintf("v%d - v%d <= %d", e.X, e.Y, e.K)
	case notExpr:
		return "!(" + ExprString(e.X) + ")"
	case andExpr:
		parts := make([]string, len(e.Xs))
		for i, x := range e.Xs {
			parts[i] = ExprString(x)
		}
		return "(" + strings.Join(parts, " & ") + ")"
	case orExpr:
		parts := make([]string, len(e.Xs))
		for i, x := range e.Xs {
			parts[i] = ExprString(x)
		}
		return "(" + strings.Join(parts, " | ") + ")"
	}
	return "?"
}

// Atom is a registered difference atom: boolean variable <-> x - y <= k.
type Atom struct {
	X, Y IntVar
	K    int64
}

// Negation of x - y <= k is y - x <= -k-1.
func (a Atom) negated() Atom { return Atom{X: a.Y, Y: a.X, K: -a.K - 1} }

// Problem accumulates assertions and solves them.
type Problem struct {
	nextInt  IntVar
	names    map[IntVar]string
	asserts  []Expr
	atomVars map[Atom]int // canonical atom -> SAT variable
	atoms    []Atom       // SAT variable -> atom (entries may be zero Atom for gate vars)
	isAtom   []bool
	clauses  [][]Lit
	nIntVars int
	seeded   int64 // SeedLt assertions (propagation-proved literals)
	compiled bool
	unsat    bool // a top-level assertion was statically False
}

// NewProblem creates an empty problem.
func NewProblem() *Problem {
	return &Problem{
		names:    make(map[IntVar]string),
		atomVars: make(map[Atom]int),
	}
}

// IntVarNamed allocates a fresh integer variable with a diagnostic name.
func (p *Problem) IntVarNamed(name string) IntVar {
	v := p.nextInt
	p.nextInt++
	if name != "" {
		p.names[v] = name
	}
	return v
}

// Assert adds a formula that must hold.
func (p *Problem) Assert(e Expr) { p.asserts = append(p.asserts, e) }

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

// newBoolVar allocates a SAT variable that is not an atom.
func (p *Problem) newBoolVar() int {
	v := len(p.atoms)
	p.atoms = append(p.atoms, Atom{})
	p.isAtom = append(p.isAtom, false)
	return v
}

// atomVar returns the SAT literal equivalent to atom a, canonicalizing
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
	p.isAtom = append(p.isAtom, true)
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

// Add accumulates o into s, for aggregating per-component solver statistics.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.TheoryChecks += o.TheoryChecks
	s.Restarts += o.Restarts
	s.Clauses += o.Clauses
	s.Vars += o.Vars
	s.Seeded += o.Seeded
}

// Solve compiles the assertions to CNF and runs the DPLL(T) search.
func (p *Problem) Solve() Result {
	return NewSolver().Solve(p)
}

// compile lowers the assertions to CNF exactly once: top-level conjunction
// flattening, with Tseitin encoding for non-clausal structure. It reports
// false when some assertion is statically False.
func (p *Problem) compile() bool {
	if p.compiled {
		return !p.unsat
	}
	p.compiled = true
	for _, e := range p.asserts {
		if !p.compileTop(e) {
			p.unsat = true
		}
	}
	return !p.unsat
}

// compileTop compiles a top-level assertion, exploiting conjunction and
// clause shapes to avoid gate variables for the common schedule constraints.
// It reports false when the assertion is statically False.
func (p *Problem) compileTop(e Expr) bool {
	switch e := e.(type) {
	case boolExpr:
		return bool(e)
	case andExpr:
		ok := true
		for _, x := range e.Xs {
			if !p.compileTop(x) {
				ok = false
			}
		}
		return ok
	case orExpr:
		// A disjunction of literals becomes a single clause; anything
		// deeper goes through Tseitin.
		lits, flat := p.tryFlatClause(e.Xs)
		if flat {
			if len(lits) == 0 {
				return false
			}
			p.clauses = append(p.clauses, lits)
			return true
		}
		l := p.tseitin(e)
		p.clauses = append(p.clauses, []Lit{l})
		return true
	case atomExpr:
		p.clauses = append(p.clauses, []Lit{p.atomLit(Atom{X: e.X, Y: e.Y, K: e.K})})
		return true
	case notExpr:
		if a, ok := e.X.(atomExpr); ok {
			p.clauses = append(p.clauses, []Lit{p.atomLit(Atom{X: a.X, Y: a.Y, K: a.K}).Neg()})
			return true
		}
		l := p.tseitin(e)
		p.clauses = append(p.clauses, []Lit{l})
		return true
	default:
		l := p.tseitin(e)
		p.clauses = append(p.clauses, []Lit{l})
		return true
	}
}

// tryFlatClause converts a disjunct list into literals when every disjunct
// is an atom or negated atom.
func (p *Problem) tryFlatClause(xs []Expr) ([]Lit, bool) {
	lits := make([]Lit, 0, len(xs))
	for _, x := range xs {
		switch x := x.(type) {
		case atomExpr:
			lits = append(lits, p.atomLit(Atom{X: x.X, Y: x.Y, K: x.K}))
		case notExpr:
			a, ok := x.X.(atomExpr)
			if !ok {
				return nil, false
			}
			lits = append(lits, p.atomLit(Atom{X: a.X, Y: a.Y, K: a.K}).Neg())
		case boolExpr:
			if bool(x) {
				// Clause is trivially true; emit nothing by signaling a
				// one-literal tautology via empty true marker.
				return []Lit{}, false
			}
			// False disjunct: drop it.
		default:
			return nil, false
		}
	}
	return lits, true
}

// tseitin returns a literal equivalent to e, adding defining clauses.
func (p *Problem) tseitin(e Expr) Lit {
	switch e := e.(type) {
	case boolExpr:
		// Encode constants via a fresh unit-constrained variable.
		v := p.newBoolVar()
		l := MkLit(v, false)
		if e {
			p.clauses = append(p.clauses, []Lit{l})
		} else {
			p.clauses = append(p.clauses, []Lit{l.Neg()})
		}
		return l
	case atomExpr:
		return p.atomLit(Atom{X: e.X, Y: e.Y, K: e.K})
	case notExpr:
		return p.tseitin(e.X).Neg()
	case andExpr:
		ls := make([]Lit, len(e.Xs))
		for i, x := range e.Xs {
			ls[i] = p.tseitin(x)
		}
		g := MkLit(p.newBoolVar(), false)
		// g -> li for each i; (l1 & ... & ln) -> g
		long := make([]Lit, 0, len(ls)+1)
		for _, l := range ls {
			p.clauses = append(p.clauses, []Lit{g.Neg(), l})
			long = append(long, l.Neg())
		}
		long = append(long, g)
		p.clauses = append(p.clauses, long)
		return g
	case orExpr:
		ls := make([]Lit, len(e.Xs))
		for i, x := range e.Xs {
			ls[i] = p.tseitin(x)
		}
		g := MkLit(p.newBoolVar(), false)
		// li -> g for each i; g -> (l1 | ... | ln)
		long := make([]Lit, 0, len(ls)+1)
		for _, l := range ls {
			p.clauses = append(p.clauses, []Lit{l.Neg(), g})
			long = append(long, l)
		}
		long = append(long, g.Neg())
		p.clauses = append(p.clauses, long)
		return g
	}
	panic("smt: unknown expression")
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
