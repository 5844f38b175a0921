package smt

// Solver is a reusable DPLL(T) solver instance. A zero Solver is ready to
// use; Solve may be called repeatedly on different Problems, and the solver
// retains its internal allocations (trail, watch lists, activity arrays,
// theory graph) across calls, so solving many small problems in sequence —
// the replay-schedule engine solves one per residual constraint component —
// does not re-allocate per solve. Each Solve starts from a clean search
// state, so the result depends only on the Problem. A Solver must not be
// shared between goroutines.
type Solver struct {
	sat solver
	th  diffTheory
}

// NewSolver creates an empty reusable solver.
func NewSolver() *Solver { return &Solver{} }

// Solve runs the DPLL(T) search over the problem's clauses, reusing this
// Solver's allocations.
func (sv *Solver) Solve(p *Problem) Result {
	if p.unsat {
		return Result{Status: Unsat}
	}
	sv.th.reset(int(p.nextInt), p.atoms)
	sv.sat.reset(len(p.atoms), &sv.th)
	for _, lits := range p.clauses {
		sv.sat.addClause(lits)
	}
	st := sv.sat.solve()
	res := Result{Status: st, Stats: sv.sat.stats}
	res.Stats.Clauses = len(p.clauses)
	res.Stats.Vars = len(p.atoms)
	res.Stats.Seeded = p.seeded
	if st == Sat {
		res.Values = sv.th.model(p.nextInt)
	}
	return res
}
