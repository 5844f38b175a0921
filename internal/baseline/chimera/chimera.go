// Package chimera reimplements the Chimera approach (Lee, Chen, Flinn,
// Narayanasamy, PLDI 2012), the paper's patch-based baseline. Chimera first
// finds potential races statically, then *patches* the program: it wraps the
// racing statements' enclosing methods in locks, turning the program
// race-free, so that recording only the synchronization order suffices for
// deterministic replay. The heuristic bets that the patched methods rarely
// run in parallel, keeping overhead low.
//
// The same heuristic is Chimera's failure mode (Section 5.3): for bugs that
// manifest only when those rarely-parallel methods do interleave (Cache4j,
// Tomcat-37458, Tomcat-50885 in the paper), the patch locks serialize the
// methods during the record run, so the buggy interleaving can never be
// observed, let alone replayed. This implementation reproduces exactly that
// behavior: record runs execute under the patch locks, and the recorded
// artifact is only the global order of lock operations.
package chimera

import (
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline/leap"
	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Patch is the static patch plan. Non-blocking functions acquire their
// locks for the whole method duration (the coarse regions whose
// serialization is both Chimera's low overhead and its bug-hiding failure
// mode); functions that can block — spawn, join, wait, or monitor entry,
// directly or transitively — are patched at access granularity instead,
// since holding a patch lock across a blocking operation would deadlock.
type Patch struct {
	// LocksOf maps function ID to the sorted patch-lock IDs it acquires
	// for its whole duration (non-blocking functions only).
	LocksOf map[int][]int
	// SiteLock maps an access site ID to the patch lock wrapping just that
	// access (racy sites inside blocking functions).
	SiteLock map[int]int
	// NumLocks is the number of distinct patch locks (one per racy
	// location class).
	NumLocks int
}

// BuildPatch derives the patch plan from the static race report: each racy
// location class gets one patch lock, acquired by every function containing
// an access site of that class (or around the individual accesses when the
// function can block).
func BuildPatch(prog *compiler.Program, res *analysis.Result) *Patch {
	blocking := blockingFuncs(prog)
	lockOf := make(map[int]int) // race field key -> lock ID
	p := &Patch{LocksOf: make(map[int][]int), SiteLock: make(map[int]int)}
	fnLocks := make(map[int]map[int]bool)
	patchField := func(fieldKey int) int {
		id, ok := lockOf[fieldKey]
		if !ok {
			id = p.NumLocks
			p.NumLocks++
			lockOf[fieldKey] = id
		}
		return id
	}
	racyField := make(map[int]bool)
	for _, race := range res.Races {
		racyField[race.Field] = true
		id := patchField(race.Field)
		for _, fn := range race.Funcs {
			if blocking[fn] {
				continue // handled per site below
			}
			set := fnLocks[fn]
			if set == nil {
				set = make(map[int]bool)
				fnLocks[fn] = set
			}
			set[id] = true
		}
	}
	// Per-access locks for racy sites in blocking functions.
	for i, s := range prog.Sites {
		if !blocking[s.Func] {
			continue
		}
		var key int
		switch s.Kind {
		case compiler.SiteFieldRead, compiler.SiteFieldWrite:
			key = s.Field
		case compiler.SiteGlobalRead, compiler.SiteGlobalWrite:
			key = ^s.Field
		case compiler.SiteIndexRead, compiler.SiteIndexWrite:
			key = analysis.ContainerRaceKey
		default:
			continue
		}
		if racyField[key] {
			p.SiteLock[i] = patchField(key)
		}
	}
	for fn, set := range fnLocks {
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids) // fixed acquisition order prevents patch deadlocks
		p.LocksOf[fn] = ids
	}
	return p
}

// blockingFuncs marks functions that may block (spawn/join/wait/monitor),
// directly or through calls.
func blockingFuncs(prog *compiler.Program) map[int]bool {
	blocking := make(map[int]bool)
	calls := make(map[int][]int)
	all := append(append([]*compiler.Func(nil), prog.Funs...), prog.GlobalInit)
	for _, f := range all {
		for _, in := range f.Code {
			switch in.Op {
			case compiler.Spawn, compiler.Join, compiler.MonEnter:
				blocking[f.ID] = true
			case compiler.CallBtn:
				if compiler.Builtin(in.Sym) == compiler.BWait {
					blocking[f.ID] = true
				}
			case compiler.Call:
				calls[f.ID] = append(calls[f.ID], in.Sym)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if blocking[caller] {
				continue
			}
			for _, c := range callees {
				if blocking[c] {
					blocking[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return blocking
}

// lockOp is one recorded synchronization operation.
type lockOp struct {
	Thread  int32
	Acquire bool
	Lock    int32 // patch-lock ID, or ^ghost-key for program monitors
}

// Log is a Chimera recording: the global lock-operation order plus
// syscalls and observed bugs. Space is two longs per lock operation.
type Log struct {
	Seed       uint64
	Threads    []string
	Ops        []lockOp
	Syscalls   map[int32][]trace.SyscallRec
	Bugs       []trace.Bug
	SpaceLongs int64
}

// Recorder implements vm.Hooks plus FrameHooks: function entries acquire
// patch locks; only lock operations are recorded (globally ordered).
type Recorder struct {
	patch *Patch
	locks []sync.Mutex

	mu      sync.Mutex
	ops     []lockOp
	threads map[int]*threadState
}

type threadState struct {
	t        *vm.Thread
	syscalls []trace.SyscallRec
	held     map[int]int // patch lock -> depth (reentrant via nesting)
}

// NewRecorder builds a recorder for the patched program.
func NewRecorder(patch *Patch) *Recorder {
	return &Recorder{
		patch:   patch,
		locks:   make([]sync.Mutex, patch.NumLocks),
		threads: make(map[int]*threadState),
	}
}

func (r *Recorder) state(t *vm.Thread) *threadState {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.threads[t.ID]
	if ts == nil {
		ts = &threadState{t: t, held: make(map[int]int)}
		r.threads[t.ID] = ts
	}
	return ts
}

func (r *Recorder) record(t *vm.Thread, acquire bool, lock int32) {
	r.mu.Lock()
	r.ops = append(r.ops, lockOp{Thread: int32(t.ID), Acquire: acquire, Lock: lock})
	r.mu.Unlock()
}

// EnterFunc acquires the function's patch locks (reentrantly).
func (r *Recorder) EnterFunc(t *vm.Thread, fn int) {
	ids := r.patch.LocksOf[fn]
	if len(ids) == 0 {
		return
	}
	ts := r.state(t)
	for _, id := range ids {
		if ts.held[id] == 0 {
			r.locks[id].Lock()
			r.record(t, true, int32(id))
		}
		ts.held[id]++
	}
}

// ExitFunc releases the patch locks.
func (r *Recorder) ExitFunc(t *vm.Thread, fn int) {
	ids := r.patch.LocksOf[fn]
	if len(ids) == 0 {
		return
	}
	ts := r.state(t)
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		ts.held[id]--
		if ts.held[id] == 0 {
			r.record(t, false, int32(id))
			r.locks[id].Unlock()
		}
	}
}

// SharedAccess wraps racy sites of blocking functions in their per-access
// patch lock; other data accesses run bare (Chimera's low-overhead design).
// Program synchronization ghosts are recorded for the lock-order log.
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	if id, ok := r.patch.SiteLock[a.Site]; ok {
		ts := r.state(a.Thread)
		if ts.held[id] == 0 {
			r.locks[id].Lock()
			r.record(a.Thread, true, int32(id))
			do()
			r.record(a.Thread, false, int32(id))
			r.locks[id].Unlock()
		} else {
			do()
		}
	} else {
		do()
	}
	switch a.Loc.Off {
	case vm.GhostMonitor, vm.GhostLife, vm.GhostNotify:
		r.record(a.Thread, a.Kind == vm.Read, ^leap.Key(a.Loc))
	}
}

// Syscall records the live value.
func (r *Recorder) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	val := compute()
	ts := r.state(t)
	r.mu.Lock()
	ts.syscalls = append(ts.syscalls, trace.SyscallRec{Seq: seq, Value: val.I})
	r.mu.Unlock()
	return val
}

// ThreadStarted registers the thread.
func (r *Recorder) ThreadStarted(t *vm.Thread) { r.state(t) }

// ThreadExited is a no-op.
func (r *Recorder) ThreadExited(*vm.Thread) {}

// Finish assembles the log.
func (r *Recorder) Finish(res *vm.Result, seed uint64) *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	maxID := -1
	for id := range r.threads {
		if id > maxID {
			maxID = id
		}
	}
	log := &Log{
		Seed:     seed,
		Threads:  make([]string, maxID+1),
		Ops:      r.ops,
		Syscalls: make(map[int32][]trace.SyscallRec),
	}
	for id, ts := range r.threads {
		log.Threads[id] = ts.t.Path
		if len(ts.syscalls) > 0 {
			log.Syscalls[int32(id)] = ts.syscalls
			log.SpaceLongs += int64(len(ts.syscalls)) * trace.LongsPerSyscall
		}
	}
	log.SpaceLongs += int64(len(r.ops)) * 2
	log.Bugs = trace.BugsOf(res)
	return log
}

// Replayer re-executes the patched program, forcing lock operations to
// follow the recorded global order. Data accesses run unordered — sound
// only to the extent the patch really made the program race-free, which is
// precisely Chimera's bet. The waits, the thread table, syscall substitution
// and the stall verdict are the shared leap.Turns core's.
type Replayer struct {
	log   *Log
	patch *Patch
	locks []sync.Mutex
	turns *leap.Turns
	// cursor is the next recorded op, guarded by the core's mutex (it is
	// read and moved only in turn predicates and steps).
	cursor int
}

// replayThread is a thread's replay state, kept in its vm.Thread.HookData.
type replayThread struct {
	*leap.Thread
	held map[int]int // patch lock -> depth (reentrant via nesting)
}

// NewReplayer builds a replayer.
func NewReplayer(log *Log, patch *Patch) *Replayer {
	r := &Replayer{log: log, patch: patch, locks: make([]sync.Mutex, patch.NumLocks)}
	r.turns = leap.NewTurns(log.Threads, log.Syscalls, func() bool { return r.cursor >= len(r.log.Ops) })
	return r
}

// Failed reports divergence or stall.
func (r *Replayer) Failed() (bool, string) { return r.turns.Failed() }

// take waits until the next recorded op is (thread, acquire, lock) and
// takes it. An op past the log's end proceeds and fails the replay.
func (r *Replayer) take(rt *replayThread, acquire bool, lock int32) {
	want := lockOp{Thread: rt.Idx, Acquire: acquire, Lock: lock}
	r.turns.Await(rt.Thread, func() bool {
		return r.cursor >= len(r.log.Ops) || r.log.Ops[r.cursor] == want
	})
	r.turns.Advance(func() string {
		r.cursor++
		if r.cursor > len(r.log.Ops) {
			return "chimera replay: lock log exhausted"
		}
		return ""
	})
}

func thread(t *vm.Thread) *replayThread { return t.HookData.(*replayThread) }

// ThreadStarted resolves the thread identity.
func (r *Replayer) ThreadStarted(t *vm.Thread) {
	t.HookData = &replayThread{Thread: r.turns.Start(t), held: make(map[int]int)}
}

// ThreadExited marks the thread exited and checks for a stall.
func (r *Replayer) ThreadExited(t *vm.Thread) { r.turns.Exit(thread(t).Thread) }

// EnterFunc reacquires patch locks in recorded order. A thread blocked in a
// patch lock's Lock never holds up a stall verdict, though the core counts it
// as runnable: the recorded op order respects mutual exclusion, so the
// acquire turn comes only after the holder's release turn has been taken, and
// the holder's next call after that turn is Unlock, with no wait between.
func (r *Replayer) EnterFunc(t *vm.Thread, fn int) {
	ids := r.patch.LocksOf[fn]
	if len(ids) == 0 {
		return
	}
	rt := thread(t)
	for _, id := range ids {
		if rt.held[id] == 0 {
			r.take(rt, true, int32(id))
			r.locks[id].Lock()
		}
		rt.held[id]++
	}
}

// ExitFunc releases patch locks in recorded order.
func (r *Replayer) ExitFunc(t *vm.Thread, fn int) {
	ids := r.patch.LocksOf[fn]
	if len(ids) == 0 {
		return
	}
	rt := thread(t)
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		rt.held[id]--
		if rt.held[id] == 0 {
			r.take(rt, false, int32(id))
			r.locks[id].Unlock()
		}
	}
}

// SharedAccess orders program synchronization ghosts and re-enforces the
// per-access patch locks; other data runs free.
func (r *Replayer) SharedAccess(a vm.Access, do func()) {
	rt := thread(a.Thread)
	if id, ok := r.patch.SiteLock[a.Site]; ok && rt.held[id] == 0 {
		r.take(rt, true, int32(id))
		r.locks[id].Lock()
		do()
		r.take(rt, false, int32(id))
		r.locks[id].Unlock()
	} else {
		do()
	}
	switch a.Loc.Off {
	case vm.GhostMonitor, vm.GhostLife, vm.GhostNotify:
		r.take(rt, a.Kind == vm.Read, ^leap.Key(a.Loc))
		r.turns.JoinBegins(rt.Thread, a)
	}
}

// Syscall substitutes the recorded value.
func (r *Replayer) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	return thread(t).Syscall(seq, compute)
}

// Record runs the patched program under the Chimera recorder.
func Record(prog *compiler.Program, patch *Patch, seed uint64, instrument []bool, sleepUnit int64) (*Log, *vm.Result, time.Duration) {
	rec := NewRecorder(patch)
	start := time.Now()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rec, Seed: seed,
		Instrument: instrument, SleepUnit: sleepUnit,
	})
	return rec.Finish(res, seed), res, time.Since(start)
}

// Replay re-executes under the recorded lock order.
func Replay(prog *compiler.Program, patch *Patch, log *Log, instrument []bool) (*vm.Result, bool, string) {
	rep := NewReplayer(log, patch)
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rep, Seed: log.Seed,
		Instrument: instrument, ReplayMode: true,
	})
	failed, reason := rep.Failed()
	return res, failed, reason
}
