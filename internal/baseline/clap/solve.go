package clap

import (
	"errors"

	"repro/internal/trace"
	"repro/internal/vm"
)

// ErrBudget is returned when the matching search exceeds its budget of search
// nodes and happens-before queries — the practical scalability limit of
// computation-based reconstruction (the paper's CLAP inherits the same limits
// from its solver).
var ErrBudget = errors.New("clap: matching search exceeded its budget")

// bres is a resolved runtime value: either a concrete vm.Value or an
// allocation atom.
type bres struct {
	isAtom bool
	atom   *alloc
	v      vm.Value
}

func (b bres) equals(o bres) bool {
	if b.isAtom != o.isAtom {
		return false
	}
	if b.isAtom {
		return b.atom == o.atom
	}
	return b.v.Equals(o.v)
}

// rstatus is the outcome of a resolution attempt.
type rstatus uint8

const (
	rOK rstatus = iota
	rUnresolved
	rOpaque
	// rInfeasible marks a resolution that contradicts the record run under
	// the current tentative bindings (e.g. an access base bound to null):
	// the search branch is dead, but the program is still supported.
	rInfeasible
)

// matcher runs the read/write matching search.
type matcher struct {
	tr     *symTrace
	events []event
	reads  []int // event indices
	// next is each event's program-order successor (-1 for a thread's last).
	next []int

	// happensBefore's BFS state, kept across queries: seen[e] == hbEpoch
	// marks e visited by the current query.
	seen    []uint64
	hbEpoch uint64
	queue   []int

	bound  []bool
	bindTo []sval // alias expressions: a read's symbol binds to the matched write's value expression

	matched []int // per read slot: matched write event index, -2 initial, -1 unmatched
	// readsOf lists, per write event, the read events matched to it, in
	// match order (matches are undone last-in first-out).
	readsOf [][]int
	deps    []matchedDep
	// depEvs mirrors deps with event indices (w == -2 for initial reads).
	depEvs []depEv

	locID  map[rloc]int32
	nextID int32

	budget int

	// validate is consulted on every complete matching; returning false
	// makes the search backtrack (used for the schedule-feasibility check).
	validate func([]matchedDep) bool

	// debugf, when non-nil, receives search tracing (tests only).
	debugf func(string, ...any)
}

// rloc is a fully resolved location.
type rloc struct {
	atom   *alloc
	global bool
	off    int64
}

func newMatcher(tr *symTrace, budget int) *matcher {
	m := &matcher{
		tr:      tr,
		events:  tr.events,
		next:    make([]int, len(tr.events)),
		seen:    make([]uint64, len(tr.events)),
		readsOf: make([][]int, len(tr.events)),
		bound:   make([]bool, tr.nsyms),
		bindTo:  make([]sval, tr.nsyms),
		locID:   make(map[rloc]int32),
		budget:  budget,
	}
	last := make(map[int32]int) // thread -> its latest event so far
	for i, ev := range tr.events {
		m.next[i] = -1
		if p, ok := last[ev.thread]; ok {
			m.next[p] = i
		}
		last[ev.thread] = i
		if !ev.write {
			m.reads = append(m.reads, i)
		}
	}
	m.matched = make([]int, len(m.reads))
	for i := range m.matched {
		m.matched[i] = -1
	}
	return m
}

// resolveVal resolves an sval under current bindings.
func (m *matcher) resolveVal(v sval) (bres, rstatus) {
	switch v.kind {
	case svConc:
		return bres{v: v.conc}, rOK
	case svAtom:
		return bres{isAtom: true, atom: v.atom}, rOK
	case svSym:
		if m.bound[v.sym] {
			// Follow the alias chain: the symbol stands for the matched
			// write's value expression. Matching edges are acyclic
			// (happensBefore guards), so this terminates.
			return m.resolveVal(m.bindTo[v.sym])
		}
		return bres{}, rUnresolved
	case svLin:
		sum := v.lin.c
		for s, c := range v.lin.terms {
			b, st := m.resolveVal(symV(s))
			if st != rOK {
				return bres{}, st
			}
			if b.isAtom || b.v.Kind != vm.KindInt {
				// The record run used this value arithmetically, so a
				// non-integer binding contradicts it: dead branch.
				return bres{}, rInfeasible
			}
			sum += c * b.v.I
		}
		return bres{v: vm.IntVal(sum)}, rOK
	default:
		return bres{}, rOpaque
	}
}

// resolveLoc resolves an event location under current bindings.
func (m *matcher) resolveLoc(l locKey) (rloc, rstatus) {
	if l.global {
		return rloc{global: true, off: l.off}, rOK
	}
	if l.baseAtom != nil {
		return rloc{atom: l.baseAtom, off: l.off}, rOK
	}
	b, st := m.resolveVal(symV(l.baseSym))
	if st != rOK {
		return rloc{}, st
	}
	if !b.isAtom {
		// The record run performed this access, so its base cannot have
		// been null there: the current bindings are wrong.
		return rloc{}, rInfeasible
	}
	return rloc{atom: b.atom, off: l.off}, rOK
}

func (m *matcher) idOf(r rloc) int32 {
	if id, ok := m.locID[r]; ok {
		return id
	}
	id := m.nextID
	m.nextID++
	m.locID[r] = id
	return id
}

// checkConds evaluates every fully resolved condition; false means the
// current bindings contradict a recorded path outcome.
func (m *matcher) checkConds() (bool, error) {
	for _, c := range m.tr.conds {
		switch c.kind {
		case condLinCmp:
			v, st := m.resolveVal(sval{kind: svLin, lin: c.lin})
			if st == rOpaque {
				return false, &ErrUnsupported{Op: "path condition over opaque value", Pos: c.pos}
			}
			if st == rInfeasible {
				return false, nil
			}
			if st == rUnresolved {
				continue
			}
			d := v.v.I
			var holds bool
			switch c.op {
			case "<":
				holds = d < 0
			case "<=":
				holds = d <= 0
			case ">":
				holds = d > 0
			case ">=":
				holds = d >= 0
			case "==":
				holds = d == 0
			case "!=":
				holds = d != 0
			}
			if holds != c.want {
				return false, nil
			}
		case condEq:
			a, sa := m.resolveVal(c.a)
			b, sb := m.resolveVal(c.b)
			if sa == rOpaque || sb == rOpaque {
				return false, &ErrUnsupported{Op: "path condition over opaque value", Pos: c.pos}
			}
			if sa == rInfeasible || sb == rInfeasible {
				return false, nil
			}
			if sa == rUnresolved || sb == rUnresolved {
				continue
			}
			if a.equals(b) != c.want {
				return false, nil
			}
		}
	}
	return true, nil
}

// depEv is a dependence in event-index space.
type depEv struct {
	w, r int
	loc  int32
}

// happensBefore reports whether event a must precede event b under program
// order plus the matching edges chosen so far, by a BFS that visits each
// event at most once and follows only its own out-edges (next, readsOf).
// extraFrom/extraTo, when >= 0, add one tentative edge. Each query costs one
// unit of the search budget: on a long trace a single search node makes
// thousands of them, and they are where its time goes.
func (m *matcher) happensBefore(a, b, extraFrom, extraTo int) bool {
	m.budget--
	if a == b {
		return false
	}
	m.hbEpoch++
	m.seen[a] = m.hbEpoch
	m.queue = append(m.queue[:0], a)
	// visit reports whether s is b, queueing s if it is new.
	visit := func(s int) bool {
		if s == b {
			return true
		}
		if m.seen[s] != m.hbEpoch {
			m.seen[s] = m.hbEpoch
			m.queue = append(m.queue, s)
		}
		return false
	}
	for qi := 0; qi < len(m.queue); qi++ {
		e := m.queue[qi]
		// Program order, then matching edges (write -> its matched reads),
		// then the tentative edge.
		if n := m.next[e]; n >= 0 && visit(n) {
			return true
		}
		for _, r := range m.readsOf[e] {
			if visit(r) {
				return true
			}
		}
		if e == extraFrom && extraTo >= 0 && visit(extraTo) {
			return true
		}
	}
	return false
}

// interferes reports whether matching read rev to write wi (or the initial
// value when wi == -2) at location id definitely violates non-interference
// with an existing dependence, under the order including the tentative new
// edge. Catching these early keeps the search off doomed branches that the
// final schedule check would otherwise reject much later.
func (m *matcher) interferes(wi, rev int, locid int32) bool {
	hb := func(a, b int) bool { return m.happensBefore(a, b, wi, rev) }
	for _, d := range m.depEvs {
		if d.loc != locid {
			continue
		}
		switch {
		case wi == -2 && d.w >= 0:
			// New initial read: no existing write may precede it.
			if hb(d.w, rev) {
				return true
			}
		case wi >= 0 && d.w == -2:
			// Existing initial read: the new write may not precede it.
			if wi >= 0 && hb(wi, d.r) {
				return true
			}
		case wi >= 0 && d.w >= 0 && d.w != wi:
			if hb(d.w, wi) && hb(wi, d.r) {
				return true // new write falls inside the existing dependence
			}
			if hb(wi, d.w) && hb(d.w, rev) {
				return true // existing write falls inside the new dependence
			}
		}
	}
	return false
}

// solve runs the search; on success it returns the matched dependences.
func (m *matcher) solve() ([]matchedDep, error) {
	ok, err := m.dfs()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("clap: no consistent read/write matching exists")
	}
	return m.deps, nil
}

func (m *matcher) dfs() (bool, error) {
	m.budget--
	if m.budget < 0 {
		return false, ErrBudget
	}

	// Propagate forced matches until fixpoint, tracking choices for undo.
	var applied []int // indices into m.reads
	undo := func() {
		for i := len(applied) - 1; i >= 0; i-- {
			m.unapply(applied[i])
		}
	}

	for {
		progress := false
		bestRead := -1
		var bestCands []int
		allMatched := true

		for ri, w := range m.matched {
			if w != -1 {
				continue
			}
			if m.budget < 0 {
				undo()
				return false, ErrBudget
			}
			allMatched = false
			re := m.events[m.reads[ri]]
			rl, st := m.resolveLoc(re.loc)
			switch st {
			case rOpaque:
				undo()
				return false, &ErrUnsupported{Op: "shared access through opaque reference", Pos: "matching"}
			case rInfeasible:
				if m.debugf != nil {
					m.debugf("dead end: read %d (t=%d c=%d) base bound to non-atom", ri, re.thread, re.counter)
				}
				undo()
				return false, nil // dead branch: backtrack
			case rUnresolved:
				continue
			}
			cands, unresolved, err := m.candidates(ri, rl)
			if err != nil {
				undo()
				return false, err
			}
			if len(cands) == 0 && !unresolved {
				if m.debugf != nil {
					m.debugf("dead end: read %d (t=%d c=%d) has no candidates", ri, re.thread, re.counter)
				}
				undo()
				return false, nil // dead end
			}
			if len(cands) == 1 && !unresolved {
				if err := m.apply(ri, cands[0], rl); err != nil {
					undo()
					return false, err
				}
				applied = append(applied, ri)
				okC, err := m.checkConds()
				if err != nil {
					undo()
					return false, err
				}
				if !okC {
					if m.debugf != nil {
						m.debugf("forced match of read %d (t=%d c=%d) violates conditions", ri, re.thread, re.counter)
					}
					undo()
					return false, nil
				}
				progress = true
				continue
			}
			// Only branch on reads whose candidate set is complete: an
			// unresolved candidate may become viable after other matches,
			// so branching now would not be exhaustive.
			if !unresolved && len(cands) > 0 && (bestRead == -1 || len(cands) < len(bestCands)) {
				bestRead = ri
				bestCands = append(bestCands[:0], cands...)
			}
		}

		if allMatched {
			okC, err := m.checkConds()
			if err != nil {
				undo()
				return false, err
			}
			if !okC || (m.validate != nil && !m.validate(m.deps)) {
				undo()
				return false, nil
			}
			return true, nil
		}
		if progress {
			continue
		}
		if bestRead == -1 {
			if m.debugf != nil {
				m.debugf("stuck: no read has a complete candidate set")
			}
			undo()
			return false, nil // no complete-set read to branch on: stuck
		}
		re := m.events[m.reads[bestRead]]
		rl, _ := m.resolveLoc(re.loc)
		if m.debugf != nil {
			m.debugf("branching on read %d (t=%d c=%d): %d candidates %v", bestRead, re.thread, re.counter, len(bestCands), bestCands)
		}
		for _, cand := range bestCands {
			if err := m.apply(bestRead, cand, rl); err != nil {
				undo()
				return false, err
			}
			okC, err := m.checkConds()
			if err != nil {
				undo()
				return false, err
			}
			if okC {
				done, err := m.dfs()
				if err != nil {
					undo()
					return false, err
				}
				if done {
					return true, nil
				}
			}
			m.unapply(bestRead)
		}
		undo()
		return false, nil
	}
}

// candidates returns the order-feasible, value-resolved write candidates for
// read ri at resolved location rl; unresolved reports whether some candidate
// write exists whose own location or value is still unresolved.
func (m *matcher) candidates(ri int, rl rloc) ([]int, bool, error) {
	rev := m.reads[ri]
	re := m.events[rev]
	var out []int
	unresolved := false
	for wi, we := range m.events {
		if !we.write {
			continue
		}
		wl, st := m.resolveLoc(we.loc)
		if st == rUnresolved {
			// Unknown base, but the offset class is static: only a write
			// with a matching offset (and non-global shape) could alias
			// this location once its base resolves.
			if !rl.global && we.loc.off == rl.off {
				unresolved = true
			}
			continue
		}
		if st == rOpaque || st == rInfeasible {
			continue
		}
		if wl != rl {
			continue
		}
		// Program order: a thread cannot read its own future write, and a
		// same-thread candidate is shadowed by any later own write that
		// still precedes the read.
		if we.thread == re.thread {
			if we.counter > re.counter {
				continue
			}
			shadowed := false
			for _, oe := range m.events {
				if oe.write && oe.thread == re.thread &&
					oe.counter > we.counter && oe.counter < re.counter {
					if ol, ost := m.resolveLoc(oe.loc); ost == rOK && ol == rl {
						shadowed = true
						break
					}
				}
			}
			if shadowed {
				continue
			}
		}
		// Order consistency with the matching so far.
		if m.happensBefore(rev, wi, -1, -1) {
			continue
		}
		if m.interferes(wi, rev, m.idOf(rl)) {
			continue
		}
		// Value resolution is deferred: the read symbol aliases the write's
		// value expression, so even unresolved values are matchable. A
		// definitely infeasible value (non-integer feeding arithmetic)
		// still disqualifies the candidate.
		if _, vst := m.resolveVal(we.val); vst == rInfeasible {
			continue
		}
		out = append(out, wi)
	}
	// The initial value (null) is a candidate unless definitely interfered.
	if !m.interferes(-2, rev, m.idOf(rl)) {
		out = append(out, -2)
	}
	return out, unresolved, nil
}

// apply commits a match: aliases the read symbol to the write's value
// expression and records the dependence.
func (m *matcher) apply(ri, wi int, rl rloc) error {
	rev := m.reads[ri]
	re := m.events[rev]
	m.matched[ri] = wi
	var val sval
	var w trace.TC
	if wi == -2 {
		val = concV(vm.Null)
		w = trace.TC{Thread: trace.InitialThread}
	} else {
		we := m.events[wi]
		val = we.val
		w = trace.TC{Thread: we.thread, Counter: we.counter}
	}
	if re.sym >= 0 {
		m.bound[re.sym] = true
		m.bindTo[re.sym] = val
	}
	m.deps = append(m.deps, matchedDep{
		loc: m.idOf(rl),
		w:   w,
		r:   trace.TC{Thread: re.thread, Counter: re.counter},
	})
	m.depEvs = append(m.depEvs, depEv{w: wi, r: rev, loc: m.idOf(rl)})
	if wi >= 0 {
		m.readsOf[wi] = append(m.readsOf[wi], rev)
	}
	return nil
}

// unapply undoes read ri's match, which must be the latest one applied.
func (m *matcher) unapply(ri int) {
	rev := m.reads[ri]
	if wi := m.matched[ri]; wi >= 0 {
		m.readsOf[wi] = m.readsOf[wi][:len(m.readsOf[wi])-1]
	}
	m.matched[ri] = -1
	if sym := m.events[rev].sym; sym >= 0 {
		m.bound[sym] = false
	}
	m.deps = m.deps[:len(m.deps)-1]
	m.depEvs = m.depEvs[:len(m.depEvs)-1]
}
