package light

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Replayer is a vm.Hooks that enforces a computed schedule: every scheduled
// access waits until the schedule entry just before it on the same location
// has executed (gates.go); range interiors run ungated between their gated
// endpoints; blind writes (writes in no dependence and no range) are
// suppressed, as Section 4.2 prescribes; and recorded system-call values
// are substituted for live ones.
type Replayer struct {
	sched *Schedule
	gates *replayGates

	// obsOn caches obs.Enabled() at construction (see Recorder.obsOn).
	obsOn bool
	// rings holds the run's per-thread flight rings; ReplayScheduled sets
	// their capacity from RunConfig.FlightCapacity before the run starts.
	rings flightRings

	// state holds one word per schedule position: posPending, posDone, or
	// a parked successor (parkedBy). A waiter's fast path is one load.
	state  []atomic.Uint32
	failed atomic.Bool

	// mu guards the failure record, the thread table, prefix, and each
	// thread's wait registration (see checkStall).
	mu     sync.Mutex
	reason string
	div    *DivergenceError
	// byIdx maps a log thread index to its replay state, so an executed
	// position can wake the successor parked on it and fail can wake all.
	byIdx []*replayThread
	// prefix caches the executed prefix: every position below it is done.
	prefix int

	// simMu serializes the simulated heap operations in race-detector builds
	// only. Faithful replays are already race-free through the gates'
	// happens-before edges, but diverged threads run their accesses free by
	// design, which would trip the detector (see vm.RaceDetector).
	simMu sync.Mutex
}

// Position states. A successor parks on a pending position by swapping in
// parkedBy(its log thread index); executing the position swaps in posDone
// and wakes the thread it finds there.
const (
	posPending uint32 = 0
	posDone    uint32 = 1
	posParked  uint32 = 2
)

func parkedBy(idx int32) uint32 { return posParked | uint32(idx)<<2 }

// run executes a simulated heap access; see simMu.
func (r *Replayer) run(do func()) {
	if vm.RaceDetector {
		r.simMu.Lock()
		defer r.simMu.Unlock()
	}
	do()
}

// replayThread is one thread's replay state, kept in its vm.Thread.HookData.
type replayThread struct {
	idx int32 // thread index in the log, -1 if unknown (divergence)

	// gates is the thread's slice of the schedule; gi and ri are its
	// cursors over the gated accesses and the range starts. Counters only
	// grow, so the cursors only move forward.
	gates *threadGates
	gi    int
	ri    int
	// windows holds each location's open range window: the thread's
	// accesses there with counters up to the window's end run ungated.
	windows map[vm.Loc]uint64
	// wake is signalled when the position this thread parked on executes,
	// or when the replay fails.
	wake chan struct{}
	// The wait registration, guarded by Replayer.mu: waitQ is the position
	// the thread last waited for at its gate, -1 if it joined since; joining
	// is the thread it last joined. exited is set once the thread exits.
	waitQ   int32
	joining *replayThread
	exited  bool

	syscalls []trace.SyscallRec
	sysPos   int

	// The thread's flight ring, nil when the run records no flight events.
	flightThread
}

// NewReplayer builds a replayer for the schedule.
func NewReplayer(sched *Schedule) *Replayer {
	g := sched.gates()
	return &Replayer{
		sched: sched,
		gates: g,
		obsOn: obs.Enabled(),
		state: make([]atomic.Uint32, len(sched.Order)),
		byIdx: make([]*replayThread, len(g.threads)),
	}
}

// Failed reports whether the replay diverged or stalled, with a reason.
func (r *Replayer) Failed() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed.Load(), r.reason
}

// Divergence returns the typed first-divergence record, or nil when the
// replay followed the schedule faithfully.
func (r *Replayer) Divergence() *DivergenceError {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.div
}

// Turn returns the executed prefix: the first schedule position that has not
// executed yet (len(Order) once all have).
func (r *Replayer) Turn() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executedPrefix()
}

// executedPrefix advances and returns prefix. Callers hold r.mu.
func (r *Replayer) executedPrefix() int {
	for r.prefix < len(r.state) && r.state[r.prefix].Load() == posDone {
		r.prefix++
	}
	return r.prefix
}

// fail records the first divergence and wakes every parked thread, which
// then runs free.
func (r *Replayer) fail(div *DivergenceError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failAt(div, r.executedPrefix())
}

// failAt is fail with the executed prefix the caller observed. Callers hold
// r.mu; div.Turn and div.ScheduleLen are filled in here so every site
// reports the same anchor.
func (r *Replayer) failAt(div *DivergenceError, turn int) {
	if !r.failed.Load() {
		div.Turn = turn
		div.ScheduleLen = len(r.sched.Order)
		lo := max(turn-ForensicScheduleWindow, 0)
		hi := min(turn+ForensicScheduleWindow, len(r.state))
		div.executedFrom = lo
		for p := lo; p < hi; p++ {
			div.executed = append(div.executed, r.state[p].Load() == posDone)
		}
		r.div = div
		r.reason = div.Error()
		r.failed.Store(true)
		if r.obsOn {
			mRepDivergences.Inc()
		}
	}
	for _, rt := range r.byIdx {
		if rt != nil {
			rt.signal()
		}
	}
}

// signal wakes the thread if it is parked; a wake already pending suffices.
func (rt *replayThread) signal() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// ThreadStarted resolves the thread's log identity and stores its replay
// state in t.HookData and the thread table, where checkStall counts it live.
// The VM calls it on the spawning goroutine, so a spawned thread is live
// before its parent can block.
func (r *Replayer) ThreadStarted(t *vm.Thread) {
	rt := newReplayThread()
	idx := r.sched.Log.ThreadIndex(t.Path)
	rt.idx = idx
	t.HookData = rt
	rt.fl = r.rings.newRing("replay", idx, t.Path)
	if idx < 0 {
		r.fail(&DivergenceError{
			Kind: DivUnknownThread, ThreadPath: t.Path, Thread: -1, Loc: -1, Pos: -1,
		})
		if rt.fl != nil {
			rt.fl.Record(flight.Event{Kind: flight.EvDivergence, Loc: -1})
		}
		return
	}
	rt.gates = &r.gates.threads[idx]
	rt.syscalls = r.sched.Log.Syscalls[idx]
	r.mu.Lock()
	r.byIdx[idx] = rt
	r.mu.Unlock()
}

// ThreadExited marks the thread exited and checks for a stall: the exit may
// leave every live thread blocked, or none live with positions pending.
func (r *Replayer) ThreadExited(t *vm.Thread) {
	rt := r.threadState(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	rt.exited = true
	r.checkStall(rt)
}

// checkStall flags DivStall at the executed prefix when the schedule is not
// finished and no live thread can run: each waits at its gate for a position
// still pending, or joins a thread still live. It runs where a stall can
// begin (a thread blocks at its gate, starts a join wait, or exits) and
// re-reads every awaited position, so a registration left from a wait that
// has ended cannot cause a false stall. Callers hold r.mu; rt is the caller,
// whose flight ring records the stall.
func (r *Replayer) checkStall(rt *replayThread) {
	if r.failed.Load() {
		return
	}
	for _, o := range r.byIdx {
		switch {
		case o == nil || o.exited:
		case o.waitQ >= 0 && r.state[o.waitQ].Load() != posDone:
		case o.waitQ < 0 && o.joining != nil && !o.joining.exited:
		default:
			return // o can run
		}
	}
	p := r.executedPrefix()
	if p == len(r.state) {
		return
	}
	next := r.sched.Order[p]
	var path string
	if next.Thread >= 0 && int(next.Thread) < len(r.sched.Log.Threads) {
		path = r.sched.Log.Threads[next.Thread]
	}
	r.failAt(&DivergenceError{
		Kind: DivStall, ThreadPath: path, Thread: next.Thread, Counter: next.Counter, Loc: -1, Pos: p,
	}, p)
	if rt.fl != nil {
		rt.fl.Record(flight.Event{Kind: flight.EvDivergence, Counter: next.Counter, Loc: -1, A: int64(p)})
	}
}

// joinBegins registers a join wait after the thread read another thread's
// life location: in replay mode the VM's join then blocks until that thread
// exits.
func (r *Replayer) joinBegins(rt *replayThread, a vm.Access) {
	h, ok := a.Loc.Base.(*vm.ThreadHandle)
	if !ok || h == a.Thread.Handle {
		return // a thread's start read of its own life location
	}
	idx := r.sched.Log.ThreadIndex(h.Path)
	if idx < 0 {
		return // an unknown thread: the replay has failed already
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rt.waitQ, rt.joining = -1, r.byIdx[idx]
	r.checkStall(rt)
}

func newReplayThread() *replayThread {
	return &replayThread{idx: -1, waitQ: -1, windows: make(map[vm.Loc]uint64), wake: make(chan struct{}, 1)}
}

// threadState returns the thread's replay state; a thread the replayer never
// saw start runs free.
func (r *Replayer) threadState(t *vm.Thread) *replayThread {
	if rt, ok := t.HookData.(*replayThread); ok {
		return rt
	}
	rt := newReplayThread()
	t.HookData = rt
	return rt
}

// nextGated advances the gated cursor to counter c and reports c's schedule
// position when c is a gated access.
func (rt *replayThread) nextGated(c uint64) (int32, bool) {
	gs := rt.gates.gated
	for rt.gi < len(gs) && gs[rt.gi].counter < c {
		rt.gi++
	}
	if rt.gi < len(gs) && gs[rt.gi].counter == c {
		rt.gi++
		return gs[rt.gi-1].pos, true
	}
	return 0, false
}

// updateWindows opens the range window a gated range start begins and
// closes the windows a gated access on their location ends.
func (rt *replayThread) updateWindows(a vm.Access) {
	rs := rt.gates.ranges
	for rt.ri < len(rs) && rs[rt.ri].start < a.Counter {
		rt.ri++
	}
	if rt.ri < len(rs) && rs[rt.ri].start == a.Counter {
		rt.windows[a.Loc] = rs[rt.ri].end
	} else if end, ok := rt.windows[a.Loc]; ok && a.Counter >= end {
		delete(rt.windows, a.Loc)
	}
}

// SharedAccess gates scheduled accesses and suppresses blind writes.
func (r *Replayer) SharedAccess(a vm.Access, do func()) {
	rt := r.threadState(a.Thread)
	if rt.gates == nil {
		r.run(do) // diverged thread: run free, failure already flagged
		return
	}
	if pos, ok := rt.nextGated(a.Counter); ok {
		r.waitTurn(rt, a, pos)
		r.run(do)
		if rt.fl != nil {
			rt.flightAccess(a, a.Loc.Off, int64(pos))
			rt.fl.Record(flight.Event{Kind: flight.EvScheduleStep, Counter: a.Counter, Loc: a.Loc.Off, A: int64(pos)})
		}
		rt.updateWindows(a)
		r.advance(pos)
		if a.Loc.Off == vm.GhostLife && a.Kind == vm.Read {
			r.joinBegins(rt, a)
		}
		return
	}
	// Unscheduled access: a range interior, or a blind write.
	if end, ok := rt.windows[a.Loc]; ok && a.Counter <= end {
		r.run(do)
		if rt.fl != nil {
			rt.flightAccess(a, a.Loc.Off, -1)
		}
		return
	}
	if a.Kind == vm.Write {
		if r.obsOn {
			mRepBlindSuppressed.Inc()
		}
		if rt.fl != nil {
			rt.fl.Record(flight.Event{Kind: flight.EvBlindWrite, Counter: a.Counter, Loc: a.Loc.Off})
		}
		return // blind write: suppressed (Section 4.2)
	}
	// An unscheduled, out-of-range read indicates divergence; execute it to
	// keep the thread alive but flag the replay.
	r.fail(&DivergenceError{
		Kind: DivUnscheduledRead, ThreadPath: a.Thread.Path, Thread: rt.idx,
		Counter: a.Counter, Loc: a.Loc.Off, Pos: -1,
	})
	if rt.fl != nil {
		rt.fl.Record(flight.Event{Kind: flight.EvDivergence, Counter: a.Counter, Loc: a.Loc.Off})
	}
	r.run(do)
}

// waitTurn blocks until the position pos waits for has executed, or the
// replay has failed: it yields first and parks only when that runs out.
func (r *Replayer) waitTurn(rt *replayThread, a vm.Access, pos int32) {
	q := r.gates.wait[pos]
	if q < 0 || r.state[q].Load() == posDone || r.failed.Load() {
		return
	}
	if r.obsOn {
		mRepGatedWaits.Inc()
	}
	if rt.fl != nil {
		rt.fl.Record(flight.Event{Kind: flight.EvWaitBegin, Counter: a.Counter, Loc: a.Loc.Off, A: int64(pos), B: int64(q)})
	}
	if !r.yieldFor(q) {
		r.park(rt, q)
	}
	if rt.fl != nil {
		rt.fl.Record(flight.Event{Kind: flight.EvWaitEnd, Counter: a.Counter, Loc: a.Loc.Off, A: int64(pos), B: int64(q)})
	}
}

// gateYields bounds the yields of a gated access whose predecessor is
// pending before it parks (DESIGN.md §4b). On a contended location the
// predecessor usually executes within a few yields, and a wait that ends
// there takes no lock and needs no wake. The bound is a count, so no clock
// decides anything, and a stall is still found: a waiter that runs out of
// yields parks and checks for one.
const gateYields = 200

// yieldFor yields the P up to gateYields times and reports whether q
// executed, or the replay failed, in the meantime. It yields rather than
// spins: with more threads than Ps, a spinner would hold the P its
// predecessor needs.
func (r *Replayer) yieldFor(q int32) bool {
	for range gateYields {
		runtime.Gosched()
		if r.state[q].Load() == posDone || r.failed.Load() {
			return true
		}
	}
	return false
}

// park registers the wait for q, checks for a stall, and blocks until q has
// executed or the replay has failed.
func (r *Replayer) park(rt *replayThread, q int32) {
	if r.obsOn {
		mRepParks.Inc()
	}
	st := &r.state[q]
	r.mu.Lock()
	rt.waitQ = q
	r.checkStall(rt)
	r.mu.Unlock()
	// A failed swap means q has just executed. fail sets failed before it
	// signals, so checking failed after the swap cannot miss a failure.
	if st.CompareAndSwap(posPending, parkedBy(rt.idx)) {
		for st.Load() != posDone && !r.failed.Load() {
			<-rt.wake
		}
	}
}

// advance marks pos executed and wakes the successor parked on it.
func (r *Replayer) advance(pos int32) {
	if old := r.state[pos].Swap(posDone); old&posParked != 0 {
		r.byIdx[old>>2].signal()
	}
}

// Syscall substitutes the recorded value (Section 3.2).
func (r *Replayer) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	rt := r.threadState(t)
	if rt.sysPos < len(rt.syscalls) && rt.syscalls[rt.sysPos].Seq == seq {
		v := rt.syscalls[rt.sysPos].Value
		rt.sysPos++
		return vm.IntVal(v)
	}
	// Divergence or an unrecorded call: fall back to live computation.
	return compute()
}
