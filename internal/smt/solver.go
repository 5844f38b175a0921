package smt

// Solver is a reusable DPLL(T) solver instance. A zero Solver is ready to
// use; Solve may be called repeatedly on different Problems, and the solver
// retains its internal allocations (trail, watch lists, activity arrays,
// theory graph) across calls so that solving many small problems — the
// partitioned replay-schedule pipeline solves one per constraint component —
// does not re-allocate per solve. A Solver must not be shared between
// goroutines; a worker pool should hold one Solver per worker.
type Solver struct {
	sat solver
	th  diffTheory
}

// NewSolver creates an empty reusable solver.
func NewSolver() *Solver { return &Solver{} }

// Reset drops the previous solve's clause and theory references so their
// memory can be reclaimed, while keeping slice capacity for reuse. Calling
// Reset between solves is optional — Solve re-initializes all state — but
// recommended when the solver is held idle between components.
func (sv *Solver) Reset() {
	sv.sat.release()
	sv.th.release()
}

// Solve compiles the problem's assertions (once per Problem) and runs the
// DPLL(T) search, reusing this Solver's allocations.
func (sv *Solver) Solve(p *Problem) Result {
	if !p.compile() {
		return Result{Status: Unsat}
	}
	sv.th.reset(int(p.nextInt), p.atoms, p.isAtom)
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
