package smt

// Status is a solver verdict.
type Status int

// Verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String renders the solver status as sat, unsat, or unknown.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Lit is a SAT literal: variable<<1, with the low bit set for negation.
type Lit int32

// MkLit builds a literal for variable v, negated when neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// theory is the interface the SAT core uses to consult the difference-logic
// solver. The solver calls Assign once per trail extension (in trail order)
// and Shrink on backtracking with the new trail length. A non-nil conflict
// is a set of currently-true literals that are jointly theory-inconsistent.
type theory interface {
	Assign(l Lit) []Lit
	Shrink(trailLen int)
}

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

type solver struct {
	nVars    int
	clauses  []*clause
	learnts  []*clause
	watches  [][]*clause // per literal
	assigns  []lbool     // per var
	levels   []int32     // per var
	reasons  []*clause   // per var
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	heap     varHeap
	polarity []bool

	th    theory
	stats Stats

	claInc float64
}

// newSolver returns a solver for a fresh search over nVars SAT variables.
func newSolver(nVars int, th theory) *solver {
	s := &solver{
		nVars:    nVars,
		th:       th,
		watches:  make([][]*clause, nVars*2),
		assigns:  make([]lbool, nVars),
		levels:   make([]int32, nVars),
		reasons:  make([]*clause, nVars),
		activity: make([]float64, nVars),
		polarity: make([]bool, nVars),
		varInc:   1,
		claInc:   1,
	}
	s.heap.init(s)
	return s
}

func (s *solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() == (v == lFalse) {
		return lTrue
	}
	return lFalse
}

var emptyClauseAdded = &clause{}

// addClause installs an original clause, deduplicating literals and
// dropping tautologies. An empty clause marks the instance unsat.
func (s *solver) addClause(lits []Lit) {
	seen := make(map[Lit]bool, len(lits))
	out := lits[:0:0]
	for _, l := range lits {
		if seen[l.Neg()] {
			return // tautology
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	c := &clause{lits: out}
	if len(out) == 0 {
		s.clauses = append(s.clauses, emptyClauseAdded)
		return
	}
	s.clauses = append(s.clauses, c)
	if len(out) >= 2 {
		s.watch(c)
	}
}

func (s *solver) watch(c *clause) {
	s.watches[c.lits[0].Neg()] = append(s.watches[c.lits[0].Neg()], c)
	s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
}

func (s *solver) decisionLevel() int { return len(s.trailLim) }

// enqueue asserts l with the given reason; returns false if l is already
// false (conflict handled by caller).
func (s *solver) enqueue(l Lit, reason *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.levels[v] = int32(s.decisionLevel())
	s.reasons[v] = reason
	s.polarity[v] = !l.Sign()
	s.trail = append(s.trail, l)
	return true
}

// propagate runs boolean constraint propagation; it returns a conflicting
// clause or nil.
func (s *solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		ws := s.watches[l]
		kept := ws[:0]
		var confl *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			if confl != nil {
				kept = append(kept, c)
				continue
			}
			// Normalize: watched lit being falsified at index 1.
			if c.lits[0].Neg() == l {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// Clause satisfied by first watcher?
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for j := 2; j < len(c.lits); j++ {
				if s.value(c.lits[j]) != lFalse {
					c.lits[1], c.lits[j] = c.lits[j], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				confl = c
			}
		}
		s.watches[l] = kept
		if confl != nil {
			return confl
		}
	}
	return nil
}

// theoryCheck pushes newly assigned literals to the theory; on theory
// conflict it fabricates a conflicting clause from the returned core.
func (s *solver) theoryCheck(thHead *int) *clause {
	for *thHead < len(s.trail) {
		l := s.trail[*thHead]
		*thHead++
		s.stats.TheoryChecks++
		core := s.th.Assign(l)
		if core != nil {
			lits := make([]Lit, len(core))
			for i, cl := range core {
				lits[i] = cl.Neg()
			}
			return &clause{lits: lits, learnt: true}
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backjump level.
func (s *solver) analyze(confl *clause) ([]Lit, int) {
	learnt := []Lit{0} // slot for the asserting literal
	seen := make([]bool, s.nVars)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			// Skip the asserted literal itself when resolving on a reason
			// clause (its lits[0] is the literal implied by the clause).
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !seen[v] && s.levels[v] > 0 {
				seen[v] = true
				s.bumpVar(v)
				if int(s.levels[v]) >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on the trail to resolve.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reasons[p.Var()]
	}
	learnt[0] = p.Neg()

	// Compute backjump level: max level among the other literals.
	back := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levels[learnt[i].Var()] > s.levels[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		back = int(s.levels[learnt[1].Var()])
	}
	return learnt, back
}

func (s *solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v)
}

// cancelUntil backtracks to the given decision level.
func (s *solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reasons[v] = nil
		s.heap.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = bound
}

// pickBranchVar selects the unassigned variable with highest activity.
func (s *solver) pickBranchVar() int {
	for {
		v, ok := s.heap.pop()
		if !ok {
			return -1
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// luby computes the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

func (s *solver) solve() Status {
	for _, c := range s.clauses {
		if c == emptyClauseAdded {
			return Unsat
		}
	}
	// Enqueue unit clauses at level 0.
	for _, c := range s.clauses {
		if len(c.lits) == 1 {
			if !s.enqueue(c.lits[0], nil) {
				return Unsat
			}
		}
	}
	for v := 0; v < s.nVars; v++ {
		s.heap.push(v)
	}

	thHead := 0
	restart := int64(1)
	conflictsAtRestart := int64(0)

	for {
		confl := s.propagate()
		if confl == nil {
			s.th.Shrink(len(s.trail))
			thHead = min(thHead, len(s.trail))
			confl = s.theoryCheck(&thHead)
		}
		if confl != nil {
			s.stats.Conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == 0 {
				return Unsat
			}
			learnt, back := s.analyze(confl)
			s.cancelUntil(back)
			s.th.Shrink(len(s.trail))
			thHead = min(thHead, len(s.trail))
			lc := &clause{lits: learnt, learnt: true}
			s.learnts = append(s.learnts, lc)
			if len(learnt) >= 2 {
				s.watch(lc)
			}
			if !s.enqueue(learnt[0], lc) {
				return Unsat
			}
			s.varInc /= 0.95
			continue
		}
		// Restart policy.
		if conflictsAtRestart >= restart*100 {
			s.stats.Restarts++
			conflictsAtRestart = 0
			restart = luby(s.stats.Restarts + 1)
			s.cancelUntil(0)
			s.th.Shrink(len(s.trail))
			thHead = min(thHead, len(s.trail))
			continue
		}
		// Decide.
		v := s.pickBranchVar()
		if v == -1 {
			return Sat
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(MkLit(v, !s.polarity[v]), nil)
	}
}

// varHeap is a max-heap of variables ordered by activity.
type varHeap struct {
	s       *solver
	heap    []int
	indices []int // var -> heap position, -1 if absent
}

func (h *varHeap) init(s *solver) {
	h.s = s
	h.indices = make([]int, s.nVars)
	for i := range h.indices {
		h.indices[i] = -1
	}
}

func (h *varHeap) less(a, b int) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) push(v int) {
	if h.indices[v] != -1 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if i := h.indices[v]; i != -1 {
		h.up(i)
	}
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(v, h.heap[parent]) {
			break
		}
		h.heap[i] = h.heap[parent]
		h.indices[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(h.heap[right], h.heap[left]) {
			best = right
		}
		if !h.less(h.heap[best], v) {
			break
		}
		h.heap[i] = h.heap[best]
		h.indices[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.indices[v] = i
}
