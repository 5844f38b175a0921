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
		r.record(a.Thread, a.Kind == vm.Read, ^leapGhostKey(a.Loc))
	}
}

// leapGhostKey gives program-synchronization ghosts a stable class.
func leapGhostKey(loc vm.Loc) int32 {
	switch loc.Off {
	case vm.GhostMonitor:
		return 1
	case vm.GhostLife:
		return 2
	default:
		return 3
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
	if res != nil {
		for _, b := range res.Bugs {
			log.Bugs = append(log.Bugs, trace.Bug{
				Kind: int32(b.Kind), ThreadPath: b.ThreadPath,
				FuncID: int32(b.FuncID), PC: int32(b.PC),
				Value: b.Value, Msg: b.Msg,
			})
		}
	}
	return log
}

// Replayer re-executes the patched program, forcing lock operations to
// follow the recorded global order. Data accesses run unordered — sound
// only to the extent the patch really made the program race-free, which is
// precisely Chimera's bet.
type Replayer struct {
	log   *Log
	patch *Patch
	locks []sync.Mutex

	mu     sync.Mutex
	cond   *sync.Cond
	cursor int
	failed bool
	reason string
	last   time.Time

	threads   sync.Map // *vm.Thread -> *replayThread
	stop      chan struct{}
	stopOnce  sync.Once
	startOnce sync.Once

	// StallTimeout aborts a stuck replay.
	StallTimeout time.Duration
}

type replayThread struct {
	idx      int32
	held     map[int]int
	syscalls []trace.SyscallRec
	sysPos   int
}

// NewReplayer builds a replayer.
func NewReplayer(log *Log, patch *Patch) *Replayer {
	r := &Replayer{
		log:          log,
		patch:        patch,
		locks:        make([]sync.Mutex, patch.NumLocks),
		StallTimeout: 10 * time.Second,
		stop:         make(chan struct{}),
		last:         time.Now(),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Failed reports divergence or stall.
func (r *Replayer) Failed() (bool, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed, r.reason
}

// Stop terminates the watchdog.
func (r *Replayer) Stop() { r.stopOnce.Do(func() { close(r.stop) }) }

func (r *Replayer) watchdog() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.mu.Lock()
			if !r.failed && r.cursor < len(r.log.Ops) && time.Since(r.last) > r.StallTimeout {
				r.failed = true
				r.reason = "chimera replay stalled"
				r.cond.Broadcast()
			}
			r.mu.Unlock()
		}
	}
}

// awaitTurn blocks until the next recorded op matches (thread, acquire, lock).
func (r *Replayer) awaitTurn(idx int32, acquire bool, lock int32) {
	r.mu.Lock()
	for !r.failed {
		if r.cursor < len(r.log.Ops) {
			op := r.log.Ops[r.cursor]
			if op.Thread == idx && op.Acquire == acquire && op.Lock == lock {
				break
			}
		} else {
			r.failed = true
			r.reason = "chimera replay: lock log exhausted"
			break
		}
		r.cond.Wait()
	}
	r.cursor++
	r.last = time.Now()
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *Replayer) threadState(t *vm.Thread) *replayThread {
	if v, ok := r.threads.Load(t); ok {
		return v.(*replayThread)
	}
	rt := &replayThread{idx: -1, held: make(map[int]int)}
	actual, _ := r.threads.LoadOrStore(t, rt)
	return actual.(*replayThread)
}

// ThreadStarted resolves the thread identity.
func (r *Replayer) ThreadStarted(t *vm.Thread) {
	r.startOnce.Do(func() { go r.watchdog() })
	rt := &replayThread{idx: -1, held: make(map[int]int)}
	for i, p := range r.log.Threads {
		if p == t.Path {
			rt.idx = int32(i)
			rt.syscalls = r.log.Syscalls[int32(i)]
		}
	}
	r.threads.Store(t, rt)
}

// ThreadExited is a no-op.
func (r *Replayer) ThreadExited(*vm.Thread) {}

// EnterFunc reacquires patch locks in recorded order.
func (r *Replayer) EnterFunc(t *vm.Thread, fn int) {
	ids := r.patch.LocksOf[fn]
	if len(ids) == 0 {
		return
	}
	rt := r.threadState(t)
	for _, id := range ids {
		if rt.held[id] == 0 {
			r.awaitTurn(rt.idx, true, int32(id))
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
	rt := r.threadState(t)
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		rt.held[id]--
		if rt.held[id] == 0 {
			r.awaitTurn(rt.idx, false, int32(id))
			r.locks[id].Unlock()
		}
	}
}

// SharedAccess orders program synchronization ghosts and re-enforces the
// per-access patch locks; other data runs free.
func (r *Replayer) SharedAccess(a vm.Access, do func()) {
	rt := r.threadState(a.Thread)
	if id, ok := r.patch.SiteLock[a.Site]; ok && rt.idx >= 0 {
		if rt.held[id] == 0 {
			r.awaitTurn(rt.idx, true, int32(id))
			r.locks[id].Lock()
			do()
			r.awaitTurn(rt.idx, false, int32(id))
			r.locks[id].Unlock()
		} else {
			do()
		}
	} else {
		do()
	}
	switch a.Loc.Off {
	case vm.GhostMonitor, vm.GhostLife, vm.GhostNotify:
		if rt.idx >= 0 {
			r.awaitTurn(rt.idx, a.Kind == vm.Read, ^leapGhostKey(a.Loc))
		}
	}
}

// Syscall substitutes the recorded value.
func (r *Replayer) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	rt := r.threadState(t)
	if rt.sysPos < len(rt.syscalls) && rt.syscalls[rt.sysPos].Seq == seq {
		v := rt.syscalls[rt.sysPos].Value
		rt.sysPos++
		return vm.IntVal(v)
	}
	return compute()
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
	defer rep.Stop()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rep, Seed: log.Seed,
		Instrument: instrument, ReplayMode: true,
	})
	failed, reason := rep.Failed()
	return res, failed, reason
}
