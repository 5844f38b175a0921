// Package light implements the paper's contribution: the Light record/replay
// system. The recorder realizes Algorithm 1 — thread-local access counters, a
// global last-write map updated atomically (lock striping), optimistic
// read/write matching, and completely thread-local dependence buffers — plus
// the prec first-read-only reduction (lines 7–9) and the O1 non-interleaved
// sequence reduction (Lemma 4.3). The replayer encodes the recorded flow
// dependences and inferred thread-local orders as Integer Difference Logic
// constraints (Section 4.2), solves them with the internal SMT solver, and
// enforces the resulting total order over shared accesses.
package light

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Options selects the recorder variant. The evaluation's V_basic applies
// neither reduction beyond Algorithm 1's prec; V_O1 adds the Lemma 4.3
// sequence reduction; O2 (lock-protected location elision, Lemma 4.2) is
// applied externally through the VM instrumentation mask computed by the
// static analysis.
type Options struct {
	// O1 enables the non-interleaved sequence reduction: runs may absorb the
	// thread's own writes, so whole read/write bursts collapse to one range.
	O1 bool
	// DisablePrec turns off Algorithm 1's lines 7–9 (every read records its
	// dependence individually); used for ablation only.
	DisablePrec bool
	// FaultDropDep, when non-nil, drops matching dependences from the log as
	// they are emitted. It exists solely as a fault-injection hook for the
	// fuzzing harness: an incomplete log must be caught by the replay oracle,
	// which is how the end-to-end detection path is itself tested.
	FaultDropDep func(trace.Dep) bool
}

// numStripes aliases the stripe count shared with the trace summary (2^10
// pre-allocated locks, as in Section 4.1; see trace.StripeOf).
const numStripes = trace.NumStripes

// maxThreadID is the largest thread ID packTC can represent: the thread field
// holds threadID+1 in 16 bits with the all-ones value reserved, so IDs at or
// above 1<<16-2 would silently corrupt the last-write cell. The recorder
// rejects such threads at start rather than record an unsound log.
const maxThreadID = 1<<16 - 2

// packTC packs a thread ID and counter into one word for the atomic
// last-write cell: 16 bits of thread, 48 bits of counter; zero = initial.
func packTC(threadID int, counter uint64) uint64 {
	return uint64(threadID+1)<<48 | (counter & (1<<48 - 1))
}

// checkThreadID panics when a thread's ID cannot be packed. A silent
// truncation here would attribute writes to the wrong thread and produce
// schedules that replay the wrong execution, so this is fatal.
func checkThreadID(t *vm.Thread) {
	if t.ID >= maxThreadID {
		panic(fmt.Sprintf("light: thread ID %d overflows the recorder's 16-bit packed thread field (max %d); reduce thread count or widen packTC", t.ID, maxThreadID-1))
	}
}

func unpackTC(p uint64) (threadID int, counter uint64) {
	return int(p>>48) - 1, p & (1<<48 - 1)
}

// locState is the per-location recording state: the atomic last-write cell
// (lw in Algorithm 1), the seqlock word serializing the write-side atomic
// section, and the last-accessor stamp used to detect run breaks for the O1
// reduction. The struct is padded to one cache line (Go's 64-byte size class
// allocates it line-aligned) so two hot locations never share a line — under
// real parallelism the lw/seq/stamp traffic of independent locations would
// otherwise false-share and serialize the recorder on cache coherence.
type locState struct {
	lw atomic.Uint64
	// seq is the per-location seqlock word: odd while a writer's
	// { heap write ; lw update } section is in flight, bumped by two at
	// completion. Writers claim the cell with one CAS (falling back to the
	// stripe lock only on conflict); readers validate that no section
	// overlapped their optimistic read. See SharedAccess.
	seq   atomic.Uint32
	stamp atomic.Int32 // thread ID + 1 of the last accessor; 0 = none
	id    int32
	_     [44]byte // pad to 64 bytes
}

// stripe is one write-fallback lock, padded so adjacent stripes do not share
// a cache line (the array is indexed by a location hash, so neighboring
// entries belong to unrelated hot locations).
type stripe struct {
	mu sync.Mutex
	_  [56]byte
}

// runState tracks one open non-interleaved access run of a thread on a
// location.
type runState struct {
	startC, lastC  uint64
	w              trace.TC // dependence source when startsWithRead
	startsWithRead bool
	hasWrite       bool
	// lateReads reports reads after the first access; only such runs need
	// range protection (interior reads rely on the non-interleaving
	// guarantee), otherwise the first access's dependence suffices and the
	// writes stand alone.
	lateReads bool
	lastSeenW uint64 // packed lw as of this thread's previous access
	// foreignRead marks a write-bearing run whose last write may have been
	// observed by another thread's read (the stamp went foreign between two
	// of our accesses). That reader's dependence names the run's current
	// last write, and the constraint system exempts a dependence's own
	// anchor interval from Equation 1's next-write bound — sound only while
	// the named write stays the interval's final write. A tainted run may
	// keep absorbing reads (they commute) but must close before the thread's
	// next write.
	foreignRead bool
	// open reports that the run is live. Closed runs are not removed from the
	// thread's run table: the record is recycled in place when the thread
	// next opens a run on the same location, so steady-state run churn does
	// no map insert/delete work and no allocation (see threadState.runPool).
	open bool
	n    int
}

// threadState is the thread-local buffer of Algorithm 1: dependences and
// ranges are appended without any synchronization and merged at thread exit.
type threadState struct {
	t        *vm.Thread
	deps     []trace.Dep
	ranges   []trace.Range
	syscalls []trace.SyscallRec
	runs     map[*locState]*runState
	// One-entry run cache: bursts hit the same location repeatedly, so the
	// common case skips the map lookup entirely.
	cacheLS  *locState
	cacheRun *runState
	// runPool is the thread's run-record arena: runState records are carved
	// out of fixed-size chunks in bump-pointer fashion (one allocation per
	// runPoolChunk distinct locations instead of one per run), and each
	// record is recycled in place across the location's successive runs.
	runPool []runState

	// The thread's flight ring, nil when the run records no flight events.
	flightThread
}

// runFor returns the thread's run record for ls (open or closed, nil if the
// thread never touched the location), consulting the one-entry cache.
func (ts *threadState) runFor(ls *locState) *runState {
	if ts.cacheLS == ls {
		return ts.cacheRun
	}
	run := ts.runs[ls]
	ts.cacheLS, ts.cacheRun = ls, run
	return run
}

// runPoolChunk is the arena chunk size: how many locations' run records one
// allocation covers.
const runPoolChunk = 64

// newRun carves a fresh run record for ls out of the thread's arena and
// registers it. Called once per (thread, location) pair; later runs on the
// same location recycle the record in place.
func (ts *threadState) newRun(ls *locState) *runState {
	if len(ts.runPool) == 0 {
		ts.runPool = make([]runState, runPoolChunk)
	}
	run := &ts.runPool[0]
	ts.runPool = ts.runPool[1:]
	ts.runs[ls] = run
	ts.cacheLS, ts.cacheRun = ls, run
	return run
}

// Recorder implements vm.Hooks for the record run.
type Recorder struct {
	opts Options

	// obsOn caches obs.Enabled() at construction: the access hot path tests
	// one plain bool instead of an atomic per event, and a mid-run Enable
	// cannot produce half-counted runs. Enable metrics before NewRecorder.
	obsOn bool

	// rings holds the run's per-thread flight rings; Record sets their
	// capacity from RunConfig.FlightCapacity before the run starts.
	rings flightRings

	nextLoc atomic.Int32

	// stripes are the write-path fallback locks: a writer that loses the
	// per-location seqlock CAS queues on its location's stripe instead of
	// spinning unboundedly (and race builds serialize all accesses on them,
	// see vm.RaceDetector). Entries are cache-line padded. The array comes
	// from stripePool and goes back to it in Finish.
	stripes *[numStripes]stripe

	mu     sync.Mutex
	merged []*threadState
}

// NewRecorder creates a recorder with the given options.
func NewRecorder(opts Options) *Recorder {
	return &Recorder{opts: opts, obsOn: obs.Enabled(), stripes: stripePool.Get().(*[numStripes]stripe)}
}

// stripePool recycles stripe arrays between record runs, so back-to-back
// runs (an always-on session records one after another) do not each
// allocate and zero 64 KiB of locks. An array is returned only by Finish,
// after vm.Run has waited for every thread, so each comes back unlocked.
var stripePool = sync.Pool{New: func() any { return new([numStripes]stripe) }}

// locState reaches the per-location recording state through the entity's
// shadow cell — the paper's woven shadow-field design: no global table on
// the access hot path.
func (r *Recorder) locState(a vm.Access) *locState {
	cell := vm.ShadowCell(a)
	if p := cell.Load(); p != nil {
		return (*p).(*locState)
	}
	ls := &locState{id: r.nextLoc.Add(1) - 1}
	var boxed any = ls
	if cell.CompareAndSwap(nil, &boxed) {
		return ls
	}
	return (*cell.Load()).(*locState)
}

// stripeFor hashes a location onto one of the 2^10 pre-allocated locks,
// mirroring the paper's field-offset hashing (Section 4.1).
func (r *Recorder) stripeFor(ls *locState) *sync.Mutex {
	return &r.stripes[trace.StripeOf(ls.id)].mu
}

// newThreadState builds the per-thread buffer exactly as ThreadStarted does;
// the two construction sites must not drift (a thread that misses its
// ThreadStarted hook would otherwise silently lose its flight ring).
func (r *Recorder) newThreadState(t *vm.Thread) *threadState {
	checkThreadID(t)
	ts := &threadState{t: t, runs: make(map[*locState]*runState)}
	ts.fl = r.rings.newRing("record", int32(t.ID), t.Path)
	t.HookData = ts
	return ts
}

func (r *Recorder) state(t *vm.Thread) *threadState {
	if ts, ok := t.HookData.(*threadState); ok {
		return ts
	}
	// ThreadStarted always runs first, but be robust.
	return r.newThreadState(t)
}

// ThreadStarted allocates the thread-local buffer in the thread's hook slot.
func (r *Recorder) ThreadStarted(t *vm.Thread) {
	r.newThreadState(t)
}

// ThreadExited closes open runs and queues the buffer for merging. Runs are
// closed in location-ID order so the emitted deps/ranges sequence — and hence
// the encoded log — does not depend on map iteration order.
func (r *Recorder) ThreadExited(t *vm.Thread) {
	ts := r.state(t)
	open := make([]*locState, 0, len(ts.runs))
	for ls, run := range ts.runs {
		if run.open {
			open = append(open, ls)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].id < open[j].id })
	for _, ls := range open {
		r.closeRun(ts, ls, ts.runs[ls])
	}
	ts.runs = nil
	r.mu.Lock()
	r.merged = append(r.merged, ts)
	r.mu.Unlock()
}

// SharedAccess implements Algorithm 1 for one dynamic access.
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	ls := r.locState(a)
	t := a.Thread
	ts := r.state(t)
	me := int32(t.ID + 1)

	if a.Kind == vm.Write {
		mine := packTC(t.ID, a.Counter)
		var old uint64
		var prev int32
		if a.PreAtomic {
			old = ls.lw.Load()
			do()
			ls.lw.Store(mine)
			prev = stampSelf(ls, me)
		} else if vm.RaceDetector {
			// Race builds serialize the write section on the stripe lock so
			// the simulated program's own races don't trip the detector (see
			// vm.RaceDetector); readers hold the same lock.
			st := r.stripeFor(ls)
			st.Lock()
			old = ls.lw.Load()
			do()
			ls.lw.Store(mine)
			prev = stampSelf(ls, me)
			st.Unlock()
		} else {
			// atomic { o.f = v ; lw <- c } via the location's seqlock: one
			// CAS claims the cell (seq goes odd), the section runs, and the
			// release store publishes it. Only a CAS loss — two writers on
			// one location at one instant — takes the stripe-lock fallback,
			// so independent locations never contend on shared locks.
			seq := ls.seq.Load()
			if seq&1 == 0 && ls.seq.CompareAndSwap(seq, seq+1) {
				old = ls.lw.Load()
				do()
				ls.lw.Store(mine)
				prev = stampSelf(ls, me)
				ls.seq.Store(seq + 2)
			} else {
				old, prev = r.writeContended(ls, mine, me, do)
			}
		}
		r.afterWrite(ts, ls, a.Counter, old, prev == me)
		if ts.fl != nil {
			ts.flightAccess(a, int64(ls.id), 0)
		}
		return
	}

	// Read: optimistic retry loop (Section 2.3). The stamp is swapped
	// before the validating re-read so that any write whose stamp could be
	// ordered before ours is caught by the lw change and retried.
	var observed uint64
	var prev int32
	if a.PreAtomic {
		do()
		observed = ls.lw.Load()
		prev = stampSelf(ls, me)
	} else if vm.RaceDetector {
		// Race builds: hold the writers' stripe lock instead of running the
		// optimistic loop, so the simulated program's own races don't trip
		// the detector (see vm.RaceDetector). Equivalent outcome: lw cannot
		// change while we hold the lock, so no retry is ever needed.
		st := r.stripeFor(ls)
		st.Lock()
		do()
		observed = ls.lw.Load()
		prev = stampSelf(ls, me)
		st.Unlock()
	} else {
		// The validation re-reads both lw and the seqlock word: an unchanged
		// even seq proves no write section overlapped the optimistic read,
		// so the observed lw really is the write the read saw.
		retries := -1
		for {
			retries++
			v1 := ls.seq.Load()
			n1 := ls.lw.Load()
			do()
			prev = stampSelf(ls, me)
			n2 := ls.lw.Load()
			if v1&1 == 0 && n1 == n2 && ls.seq.Load() == v1 {
				observed = n2
				break
			}
			if retries&15 == 15 {
				// A writer parked mid-section (odd seq) makes validation
				// impossible until it runs again; yield instead of burning
				// the core it needs.
				runtime.Gosched()
			}
		}
		if r.obsOn && retries > 0 {
			mRecReadRetries.Add(uint64(retries))
		}
	}
	r.afterRead(ts, ls, a.Counter, observed, prev == me)
	if ts.fl != nil {
		ts.flightAccess(a, int64(ls.id), 0)
	}
}

// writeContended is the write path's slow half: the seqlock CAS was lost, so
// the writer queues on the location's stripe lock and re-claims the seqlock
// from there (the lock holder only ever waits for one in-flight fast-path
// section to drain). Returns the displaced lw and the previous stamp.
func (r *Recorder) writeContended(ls *locState, mine uint64, me int32, do func()) (old uint64, prev int32) {
	st := r.stripeFor(ls)
	if r.obsOn {
		mRecSeqConflicts.Inc()
		mRecStripeAcquisitions.Inc()
		if !st.TryLock() {
			mRecStripeContention.Inc()
			st.Lock()
		}
	} else {
		st.Lock()
	}
	var seq uint32
	for spins := 0; ; spins++ {
		seq = ls.seq.Load()
		if seq&1 == 0 && ls.seq.CompareAndSwap(seq, seq+1) {
			break
		}
		if spins&15 == 15 {
			runtime.Gosched()
		}
	}
	old = ls.lw.Load()
	do()
	ls.lw.Store(mine)
	prev = stampSelf(ls, me)
	ls.seq.Store(seq + 2)
	st.Unlock()
	return old, prev
}

// stampSelf marks the thread as the location's last accessor, avoiding the
// read-modify-write when the stamp is already ours: on bursts — the common
// case the O1 reduction targets — the hot cache line is only read.
func stampSelf(ls *locState, me int32) int32 {
	if ls.stamp.Load() == me {
		return me
	}
	return ls.stamp.Swap(me)
}

// afterWrite updates the thread-local run state for a write access. old is
// the packed lw before the write; wasMine reports that this thread was also
// the location's previous accessor.
func (r *Recorder) afterWrite(ts *threadState, ls *locState, c uint64, old uint64, wasMine bool) {
	run := ts.runFor(ls)
	mine := packTC(ts.t.ID, c)
	if r.obsOn {
		mRecWrites.Inc()
	}
	if run != nil && run.open {
		if r.opts.O1 && wasMine && old == run.lastSeenW && !run.foreignRead {
			run.lastC = c
			run.hasWrite = true
			run.lastSeenW = mine
			run.n++
			if r.obsOn {
				mRecO1Absorbed.Inc()
			}
			return
		}
		r.closeRun(ts, ls, run)
	}
	if run == nil {
		run = ts.newRun(ls)
	}
	*run = runState{
		startC: c, lastC: c, hasWrite: true, startsWithRead: false,
		lastSeenW: mine, n: 1, open: true,
	}
}

// afterRead updates the run state for a read that observed the packed
// last-write value observed.
func (r *Recorder) afterRead(ts *threadState, ls *locState, c uint64, observed uint64, wasMine bool) {
	run := ts.runFor(ls)
	if r.obsOn {
		mRecReads.Inc()
	}
	if run != nil && run.open {
		ok := false
		if r.opts.O1 {
			// Continue iff no other thread wrote since our last access (lw
			// unchanged). Interleaved reads by other threads commute with
			// our reads, so the run may extend — but a foreign read pins the
			// interleaving in a way no later write of ours may blur (see
			// runState.foreignRead): on a write-bearing run the foreign
			// reader's dependence names the run's last write, which must
			// then remain the interval's final write; on a read-only run the
			// foreign reader's claim must precede our *next* write, whose
			// position a mixed range would hide inside its interior (the
			// constraint encoding anchors non-interference at the interval's
			// start, so a leading-read range absorbing a post-interleaving
			// write over-constrains the schedule into contradiction — the
			// two-sided wait/notify handoff pattern triggers exactly this).
			// Either way: taint the run so no further write extends it.
			// Without the taint, our own read re-stamps the cell and the
			// next write's wasMine check can no longer see that a foreign
			// reader intervened.
			ok = observed == run.lastSeenW
			if ok && !wasMine && !run.foreignRead {
				run.foreignRead = true
				if r.obsOn {
					mRecForeignTaints.Inc()
				}
			}
		} else if !r.opts.DisablePrec {
			// Algorithm 1's prec: only consecutive reads from the very same
			// write collapse (a write by anyone, including us, breaks it).
			ok = !run.hasWrite && run.startsWithRead && observed == run.lastSeenW
		}
		if ok {
			if r.obsOn {
				// A read absorbed into a read-only run is exactly what prec
				// (Algorithm 1 lines 7-9) suppresses; absorption into a
				// write-bearing run is the O1 generalization.
				if !run.hasWrite && run.startsWithRead {
					mRecPrecSuppressed.Inc()
				} else {
					mRecO1Absorbed.Inc()
				}
			}
			run.lastC = c
			run.lateReads = true
			run.n++
			return
		}
		r.closeRun(ts, ls, run)
	}
	wt, wc := unpackTC(observed)
	w := trace.TC{Thread: trace.InitialThread}
	if wt >= 0 {
		w = trace.TC{Thread: int32(wt), Counter: wc}
	}
	if run == nil {
		run = ts.newRun(ls)
	}
	*run = runState{
		startC: c, lastC: c, w: w, startsWithRead: true,
		lastSeenW: observed, n: 1, open: true,
	}
}

// closeRun emits the log items for a finished run: a single read becomes a
// dependence, a single write becomes nothing (it is referenced by readers or
// is blind), and a longer run becomes a Range.
func (r *Recorder) closeRun(ts *threadState, ls *locState, run *runState) {
	// The record stays registered for in-place recycling (see runState.open).
	run.open = false
	if r.obsOn {
		mRecRunLength.Observe(int64(run.n))
	}
	if ts.fl != nil && run.n > 1 {
		ts.fl.Record(flight.Event{
			Kind: flight.EvRunBoundary, Counter: run.startC, Loc: int64(ls.id),
			A: int64(run.lastC), B: int64(run.n),
		})
	}
	if run.n == 1 || !run.lateReads {
		// A lone access, or a first read followed only by writes: the
		// dependence alone is sufficient (and cheaper than a range). The
		// writes stand alone — they are either later dependence sources
		// (the run's last write is what lw exposed) or blind.
		if run.startsWithRead {
			d := trace.Dep{
				Loc: ls.id,
				W:   run.w,
				R:   trace.TC{Thread: int32(ts.t.ID), Counter: run.startC},
			}
			if r.opts.FaultDropDep != nil && r.opts.FaultDropDep(d) {
				return
			}
			ts.deps = append(ts.deps, d)
		}
		return
	}
	ts.ranges = append(ts.ranges, trace.Range{
		Loc:            ls.id,
		Thread:         int32(ts.t.ID),
		Start:          run.startC,
		End:            run.lastC,
		W:              run.w,
		HasWrite:       run.hasWrite,
		StartsWithRead: run.startsWithRead,
	})
}

// Syscall records the live value for replay substitution.
func (r *Recorder) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	v := compute()
	ts := r.state(t)
	ts.syscalls = append(ts.syscalls, trace.SyscallRec{Seq: seq, Value: v.I})
	return v
}

// Finish merges the thread-local buffers into a Log. The run result supplies
// thread paths and observed bugs.
func (r *Recorder) Finish(res *vm.Result, seed uint64) *trace.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stripes != nil {
		stripePool.Put(r.stripes)
		r.stripes = nil
	}
	// Threads reach ThreadExited in a nondeterministic order; merge in thread
	// ID order so two records of the same schedule encode identical logs.
	sort.Slice(r.merged, func(i, j int) bool { return r.merged[i].t.ID < r.merged[j].t.ID })
	maxID := -1
	for _, ts := range r.merged {
		if ts.t.ID > maxID {
			maxID = ts.t.ID
		}
	}
	log := &trace.Log{
		Tool:     "light",
		Seed:     seed,
		Threads:  make([]string, maxID+1),
		Syscalls: make(map[int32][]trace.SyscallRec),
		NumLocs:  r.nextLoc.Load(),
	}
	// Size the log's slices once instead of growing them thread by thread.
	var nDeps, nRanges int
	for _, ts := range r.merged {
		nDeps += len(ts.deps)
		nRanges += len(ts.ranges)
	}
	if nDeps > 0 {
		log.Deps = make([]trace.Dep, 0, nDeps)
	}
	if nRanges > 0 {
		log.Ranges = make([]trace.Range, 0, nRanges)
	}
	var space int64
	for _, ts := range r.merged {
		log.Threads[ts.t.ID] = ts.t.Path
		log.Deps = append(log.Deps, ts.deps...)
		log.Ranges = append(log.Ranges, ts.ranges...)
		if len(ts.syscalls) > 0 {
			log.Syscalls[int32(ts.t.ID)] = ts.syscalls
		}
		space += int64(len(ts.deps))*trace.LongsPerDep +
			int64(len(ts.ranges))*trace.LongsPerRange +
			int64(len(ts.syscalls))*trace.LongsPerSyscall
		if r.obsOn {
			mRecDeps.Add(uint64(len(ts.deps)))
			mRecRanges.Add(uint64(len(ts.ranges)))
			mRecSyscalls.Add(uint64(len(ts.syscalls)))
			mRecThreadDeps.Observe(int64(len(ts.deps)))
			mRecThreadRanges.Observe(int64(len(ts.ranges)))
		}
	}
	log.SpaceLongs = space
	if r.obsOn && space > 0 {
		mRecSpaceLongs.Add(uint64(space))
	}
	if res != nil {
		for _, b := range res.Bugs {
			log.Bugs = append(log.Bugs, trace.Bug{
				Kind:       int32(b.Kind),
				ThreadPath: b.ThreadPath,
				FuncID:     int32(b.FuncID),
				PC:         int32(b.PC),
				Value:      b.Value,
				Msg:        b.Msg,
			})
		}
	}
	return log
}
