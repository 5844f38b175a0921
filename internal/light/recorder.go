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
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

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
// reduction. It holds no pointers, and the recorder keeps it in locTable's
// chunks, indexed by the location ID the entity's shadow cell holds. The
// struct is padded to one cache line (a chunk is a multiple of 64 bytes, and
// Go allocates such blocks line-aligned) so two hot locations never share a
// line: under real parallelism the lw/seq/stamp traffic of independent
// locations would otherwise false-share and serialize the recorder on cache
// coherence.
type locState struct {
	lw atomic.Uint64
	// seq is the per-location seqlock word: odd while a writer's
	// { heap write ; lw update } section is in flight, bumped by two at
	// completion. Writers claim the cell with one CAS (falling back to the
	// stripe lock only on conflict); readers validate that no section
	// overlapped their optimistic read. See SharedAccess.
	seq   atomic.Uint32
	stamp atomic.Int32 // thread ID + 1 of the last accessor; 0 = none
	_     [48]byte     // pad to 64 bytes
}

// locTable's chunks never move, so a location's state has a stable address
// and growing the table copies nothing. Chunks come four to a level, and
// level j's chunks hold chunk0<<j states: the first chunk is small (a run
// with a few dozen locations costs a few KiB) and each new chunk adds a
// quarter to a half of the capacity, so at most about a fifth of the table
// is ever unused. chunkOf maps an ID onto its chunk with a few shifts;
// maxChunks chunks cover every int32 ID (the largest starts the last
// level's first chunk).
const (
	chunk0Bits     = 3 // chunk0 = 8 states per chunk on level 0
	chunkLevelBits = 2 // four chunks per level
	maxChunks      = (31-chunk0Bits-chunkLevelBits)<<chunkLevelBits + 1
)

// chunkOf maps a location ID onto its chunk and its offset in the chunk.
func chunkOf(i int32) (chunk int, off int32) {
	x := uint32(i) + 1<<(chunk0Bits+chunkLevelBits)
	top := bits.Len32(x) - 1
	sh := top - chunkLevelBits // log2 of the chunk's length
	r := x &^ (1 << top)
	return (top-chunk0Bits-chunkLevelBits)<<chunkLevelBits + int(r>>sh), int32(r & (1<<sh - 1))
}

// chunkLen is the number of states chunk k holds.
func chunkLen(k int) int { return 1 << (chunk0Bits + k>>chunkLevelBits) }

// locTable is the recorder's per-location state, indexed by location ID:
// chunks of pointer-free locStates (see chunkOf), allocated on demand, so a
// thread reaches a location's state with two loads (the chunk, then the
// entry) and no lock. A chunk is published as a pointer to its first state,
// not to a slice, so making one is a single allocation; chunkOf's offsets
// stay inside the chunk, and the pointer keeps the whole chunk alive.
type locTable struct {
	chunks [maxChunks]atomic.Pointer[locState]
}

// at returns the state of location id, whose chunk ensure has made.
func (lt *locTable) at(id int32) *locState {
	k, off := chunkOf(id)
	return (*locState)(unsafe.Add(unsafe.Pointer(lt.chunks[k].Load()), uintptr(off)*unsafe.Sizeof(locState{})))
}

// ensure makes the chunk holding id. A thread calls it before it publishes
// id in a shadow cell, so every thread that reads the ID finds the chunk.
// Two threads that race to make one chunk both allocate it; one CAS wins
// and the other's copy is dropped before anyone has used it.
func (lt *locTable) ensure(id int32) {
	k, _ := chunkOf(id)
	if lt.chunks[k].Load() != nil {
		return
	}
	lt.chunks[k].CompareAndSwap(nil, &make([]locState, chunkLen(k))[0])
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
	// foreignRead marks a write-bearing run whose last write may have been
	// observed by another thread's read (the stamp went foreign between two
	// of our accesses). That reader's dependence names the run's current
	// last write, and the constraint system exempts a dependence's own
	// anchor interval from Equation 1's next-write bound — sound only while
	// the named write stays the interval's final write. A tainted run may
	// keep absorbing reads (they commute) but must close before the thread's
	// next write.
	foreignRead bool
	// open reports that the run is live. Closed runs stay in the thread's
	// run table: the record is recycled in place when the thread next opens
	// a run on the same location, so steady-state run churn does no table
	// work and no allocation.
	open      bool
	loc       int32  // the location's ID, the record's key in its runTable
	lastSeenW uint64 // packed lw as of this thread's previous access
	n         int
}

// runTable is one thread's run records, keyed by location ID. The records
// sit in fixed chunks of runChunk, one per location the thread has touched,
// in first-touch order, so growing the table never copies a record; slots is
// an open-addressing index over them (linear probing, Fibonacci hashing)
// whose entries are a record's index plus one, 0 marking an empty slot.
// Records and slots are pointer-free and grow with the locations the thread
// touches, not with the run's location count, so thousands of short threads
// stay cheap. Tables are recycled through runTablePool when their thread
// exits. A map[int32]int32 index in place of slots read 3.7% higher
// kernel-stripes record_overhead (1.285 → 1.332, 6 of 6 pairs on 2 CPUs) and
// allocates more as it grows.
type runTable struct {
	slots  []int32
	chunks []*[runChunk]runState
	n      int32  // records in use
	shift  uint32 // 32 - log2(len(slots))
}

// runChunk is how many run records one chunk of a runTable holds (2 KiB).
const runChunk = 32

// runTablePool recycles run tables, with their chunks, between threads and
// between record runs: a thread takes one at start and gives it back at
// exit, once its runs are closed.
var runTablePool = sync.Pool{New: func() any {
	const slots = 16
	return &runTable{slots: make([]int32, slots), shift: 32 - 4}
}}

// home is id's first probe slot.
func (tb *runTable) home(id int32) uint32 { return uint32(id) * 0x9e3779b9 >> tb.shift }

// run returns record i.
func (tb *runTable) run(i int32) *runState { return &tb.chunks[i/runChunk][i%runChunk] }

// find returns id's run record, or nil when the thread has not touched the
// location.
func (tb *runTable) find(id int32) *runState {
	mask := uint32(len(tb.slots) - 1)
	for i := tb.home(id); ; i = (i + 1) & mask {
		s := tb.slots[i]
		if s == 0 {
			return nil
		}
		if run := tb.run(s - 1); run.loc == id {
			return run
		}
	}
}

// insert adds a closed run record for id, which find does not know.
func (tb *runTable) insert(id int32) *runState {
	if 4*(tb.n+1) > 3*int32(len(tb.slots)) {
		tb.grow()
	}
	if int(tb.n) == len(tb.chunks)*runChunk {
		tb.chunks = append(tb.chunks, new([runChunk]runState))
	}
	tb.n++
	run := tb.run(tb.n - 1)
	*run = runState{loc: id}
	tb.place(id, tb.n)
	return run
}

// place stores slot value v (a record index plus one) in id's first free
// slot.
func (tb *runTable) place(id int32, v int32) {
	mask := uint32(len(tb.slots) - 1)
	i := tb.home(id)
	for tb.slots[i] != 0 {
		i = (i + 1) & mask
	}
	tb.slots[i] = v
}

// grow doubles the slot array and re-indexes every record.
func (tb *runTable) grow() {
	tb.slots = make([]int32, 2*len(tb.slots))
	tb.shift--
	for i := int32(0); i < tb.n; i++ {
		tb.place(tb.run(i).loc, i+1)
	}
}

// threadState is the thread-local buffer of Algorithm 1: dependences and
// ranges are appended without any synchronization and merged at thread exit.
// Finish hands the state and its buffers to threadStatePool for the next
// record run.
type threadState struct {
	t        *vm.Thread
	deps     []trace.Dep
	ranges   []trace.Range
	syscalls []trace.SyscallRec
	// tab is the thread's run table, taken from runTablePool at thread
	// start and returned at thread exit.
	tab *runTable
	// One-entry location cache: bursts hit the same location repeatedly,
	// so the common case skips both the locTable lookup and the run-table
	// probe. cacheLS is location cacheID's state and cacheRun the thread's
	// record for it (nil until the thread opens a run there).
	cacheID  int32
	cacheLS  *locState
	cacheRun *runState

	// The thread's flight ring, nil when the run records no flight events.
	flightThread
}

// threadStatePool recycles thread states, with their dependence and range
// buffers, between record runs; Finish returns them once merged.
var threadStatePool = sync.Pool{New: func() any { return new(threadState) }}

// lookup makes location id the cached one: its state and the thread's run
// record for it (open or closed, nil if the thread never touched the
// location).
func (ts *threadState) lookup(r *Recorder, id int32) {
	if ts.cacheID != id {
		ts.cacheID, ts.cacheLS, ts.cacheRun = id, r.locs.at(id), ts.tab.find(id)
	}
}

// newRun adds a run record for the cached location to the thread's table.
// Called once per (thread, location) pair; later runs on the same location
// recycle the record in place.
func (ts *threadState) newRun() *runState {
	ts.cacheRun = ts.tab.insert(ts.cacheID)
	return ts.cacheRun
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

	// nextLoc hands out location IDs in first-touch order, and locs holds
	// each location's state under its ID.
	nextLoc atomic.Int32
	locs    locTable

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

// locID reaches a location's ID through the entity's shadow cell, the
// paper's woven shadow-field design: the cell holds the ID plus one, and the
// ID indexes the recorder's locTable. The first thread to touch a location
// takes the next ID and claims the cell with a CAS; a thread that loses the
// race uses the winner's ID, and the loser's ID is never used.
func (r *Recorder) locID(a vm.Access) int32 {
	cell := vm.ShadowCell(a)
	if v := cell.Load(); v != 0 {
		return v - 1
	}
	id := r.nextLoc.Add(1) - 1
	r.locs.ensure(id)
	if !cell.CompareAndSwap(0, id+1) {
		id = cell.Load() - 1
	}
	return id
}

// stripeFor hashes a location onto one of the 2^10 pre-allocated locks,
// mirroring the paper's field-offset hashing (Section 4.1).
func (r *Recorder) stripeFor(id int32) *sync.Mutex {
	return &r.stripes[trace.StripeOf(id)].mu
}

// newThreadState builds the per-thread buffer exactly as ThreadStarted does;
// the two construction sites must not drift (a thread that misses its
// ThreadStarted hook would otherwise silently lose its flight ring).
func (r *Recorder) newThreadState(t *vm.Thread) *threadState {
	checkThreadID(t)
	ts := threadStatePool.Get().(*threadState)
	ts.t = t
	ts.tab = runTablePool.Get().(*runTable)
	ts.cacheID, ts.cacheLS, ts.cacheRun = -1, nil, nil
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

// ThreadExited closes open runs, returns the run table to runTablePool and
// queues the buffer for merging. Runs are closed in location-ID order so the
// emitted deps/ranges sequence, and hence the encoded log, does not depend
// on the order in which the thread first touched its locations. The table's
// slot array, dead once the thread exits, holds the open runs' indices
// while they are sorted by location.
func (r *Recorder) ThreadExited(t *vm.Thread) {
	ts := r.state(t)
	tab := ts.tab
	open := tab.slots[:0]
	for i := int32(0); i < tab.n; i++ {
		if tab.run(i).open {
			open = append(open, i)
		}
	}
	slices.SortFunc(open, func(a, b int32) int { return int(tab.run(a).loc) - int(tab.run(b).loc) })
	for _, i := range open {
		run := tab.run(i)
		r.closeRun(ts, run.loc, run)
	}
	clear(tab.slots)
	tab.n = 0
	runTablePool.Put(tab)
	ts.tab, ts.cacheLS, ts.cacheRun = nil, nil, nil
	r.mu.Lock()
	r.merged = append(r.merged, ts)
	r.mu.Unlock()
}

// SharedAccess implements Algorithm 1 for one dynamic access.
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	id := r.locID(a)
	t := a.Thread
	ts := r.state(t)
	ts.lookup(r, id)
	ls := ts.cacheLS
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
			st := r.stripeFor(id)
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
				old, prev = r.writeContended(ls, id, mine, me, do)
			}
		}
		r.afterWrite(ts, id, a.Counter, old, prev == me)
		if ts.fl != nil {
			ts.flightAccess(a, int64(id), 0)
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
		st := r.stripeFor(id)
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
	r.afterRead(ts, id, a.Counter, observed, prev == me)
	if ts.fl != nil {
		ts.flightAccess(a, int64(id), 0)
	}
}

// writeContended is the write path's slow half: the seqlock CAS was lost, so
// the writer queues on the location's stripe lock and re-claims the seqlock
// from there (the lock holder only ever waits for one in-flight fast-path
// section to drain). Returns the displaced lw and the previous stamp.
func (r *Recorder) writeContended(ls *locState, id int32, mine uint64, me int32, do func()) (old uint64, prev int32) {
	st := r.stripeFor(id)
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

// afterWrite updates the thread-local run state for a write access to
// location id, the thread's cached location (see threadState.lookup). old is
// the packed lw before the write; wasMine reports that this thread was also
// the location's previous accessor.
func (r *Recorder) afterWrite(ts *threadState, id int32, c uint64, old uint64, wasMine bool) {
	run := ts.cacheRun
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
		r.closeRun(ts, id, run)
	}
	if run == nil {
		run = ts.newRun()
	}
	*run = runState{
		startC: c, lastC: c, hasWrite: true, startsWithRead: false,
		lastSeenW: mine, n: 1, open: true, loc: id,
	}
}

// afterRead updates the run state for a read of location id, the thread's
// cached location, that observed the packed last-write value observed.
func (r *Recorder) afterRead(ts *threadState, id int32, c uint64, observed uint64, wasMine bool) {
	run := ts.cacheRun
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
		r.closeRun(ts, id, run)
	}
	wt, wc := unpackTC(observed)
	w := trace.TC{Thread: trace.InitialThread}
	if wt >= 0 {
		w = trace.TC{Thread: int32(wt), Counter: wc}
	}
	if run == nil {
		run = ts.newRun()
	}
	*run = runState{
		startC: c, lastC: c, w: w, startsWithRead: true,
		lastSeenW: observed, n: 1, open: true, loc: id,
	}
}

// closeRun emits the log items for a finished run: a single read becomes a
// dependence, a single write becomes nothing (it is referenced by readers or
// is blind), and a longer run becomes a Range.
func (r *Recorder) closeRun(ts *threadState, id int32, run *runState) {
	// The record stays registered for in-place recycling (see runState.open).
	run.open = false
	if r.obsOn {
		mRecRunLength.Observe(int64(run.n))
	}
	if ts.fl != nil && run.n > 1 {
		ts.fl.Record(flight.Event{
			Kind: flight.EvRunBoundary, Counter: run.startC, Loc: int64(id),
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
				Loc: id,
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
		Loc:            id,
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
	slices.SortFunc(r.merged, func(a, b *threadState) int { return a.t.ID - b.t.ID })
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
	// The log holds copies of the deps and ranges and the syscall slices
	// themselves; the thread states go back to the pool with their buffers.
	for _, ts := range r.merged {
		if h, ok := ts.t.HookData.(*threadState); ok && h == ts {
			ts.t.HookData = nil
		}
		*ts = threadState{deps: ts.deps[:0], ranges: ts.ranges[:0]}
		threadStatePool.Put(ts)
	}
	r.merged = nil
	if r.obsOn && space > 0 {
		mRecSpaceLongs.Add(uint64(space))
	}
	log.Bugs = trace.BugsOf(res)
	return log
}
