// Package leap reimplements the LEAP record/replay approach (Huang, Liu,
// Zhang, FSE 2010) as the paper's primary record-based baseline. LEAP keeps,
// for every shared location class (it works at field granularity), a global
// access vector of thread IDs; every shared access — read or write —
// appends to that vector inside a per-location critical section, so the
// recorded order is exactly the access order. Replay re-executes the
// program, forcing each location's accesses to follow its vector.
//
// The two structural costs the paper attributes to LEAP are visible here:
// every access (1) synchronizes on the location lock around both the heap
// operation and the recording, and (2) mutates a growable global vector.
// Space is one long integer per dynamic shared access (Section 5.2's unit).
package leap

import (
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Key maps a dynamic location to LEAP's static location class: object
// fields collapse onto their field signature, globals onto the global slot,
// arrays onto a bounded index bucket, and maps and the synchronization
// ghosts onto per-kind classes. This field-granular conflation is faithful
// to LEAP's design (it trades precision for a stable cross-run identity).
func Key(loc vm.Loc) int32 {
	const (
		globalBase = 1 << 20
		arrayBase  = 2 << 20
		mapKey     = 3 << 20
		monitorKey = 4 << 20
		lifeKey    = 5 << 20
		notifyKey  = 6 << 20
	)
	switch loc.Off {
	case vm.GhostMapAll:
		return mapKey
	case vm.GhostMonitor:
		return monitorKey
	case vm.GhostLife:
		return lifeKey
	case vm.GhostNotify:
		return notifyKey
	}
	switch loc.Base.(type) {
	case *vm.GlobalsBase:
		return int32(globalBase + loc.Off)
	case *vm.Array:
		return int32(arrayBase + loc.Off%1024)
	default:
		return int32(loc.Off) // object field: field-name ID
	}
}

// Log is a LEAP recording: per location class, the global thread-ID access
// vector, plus recorded syscalls and observed bugs.
type Log struct {
	Seed     uint64
	Threads  []string
	Vectors  map[int32][]int32 // key -> thread indices in access order
	Syscalls map[int32][]trace.SyscallRec
	Bugs     []trace.Bug
	// SpaceLongs is one long per recorded access.
	SpaceLongs int64
}

// accessRec is one boxed access record: LEAP's Java implementation appends
// Integer objects into a synchronized ArrayList, so each recorded access
// allocates; modeling that allocation (inside the critical section) is part
// of reproducing LEAP's cost profile.
type accessRec struct {
	tid int32
}

type accessVector struct {
	mu   sync.Mutex
	recs []*accessRec
}

// vecShards spreads the vector table lookup (the synchronization that
// matters — the per-location vector mutex — is inside accessVector).
const vecShards = 64

type vecShard struct {
	mu sync.RWMutex
	m  map[int32]*accessVector
}

// Recorder implements vm.Hooks with LEAP's globally synchronized vectors.
type Recorder struct {
	shards  [vecShards]vecShard
	mu      sync.Mutex
	threads map[int]*threadState
}

type threadState struct {
	t        *vm.Thread
	syscalls []trace.SyscallRec
}

// NewRecorder creates a LEAP recorder.
func NewRecorder() *Recorder {
	r := &Recorder{threads: make(map[int]*threadState)}
	for i := range r.shards {
		r.shards[i].m = make(map[int32]*accessVector)
	}
	return r
}

func (r *Recorder) vector(key int32) *accessVector {
	sh := &r.shards[uint32(key)%vecShards]
	sh.mu.RLock()
	v := sh.m[key]
	sh.mu.RUnlock()
	if v != nil {
		return v
	}
	sh.mu.Lock()
	if v = sh.m[key]; v == nil {
		v = &accessVector{}
		sh.m[key] = v
	}
	sh.mu.Unlock()
	return v
}

// SharedAccess appends the thread to the location vector inside the
// location's critical section, together with the heap operation.
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	v := r.vector(Key(a.Loc))
	v.mu.Lock()
	do()
	v.recs = append(v.recs, &accessRec{tid: int32(a.Thread.ID)})
	v.mu.Unlock()
}

// Syscall records the live value.
func (r *Recorder) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	val := compute()
	r.mu.Lock()
	ts := r.threads[t.ID]
	if ts != nil {
		ts.syscalls = append(ts.syscalls, trace.SyscallRec{Seq: seq, Value: val.I})
	}
	r.mu.Unlock()
	return val
}

// ThreadStarted registers the thread.
func (r *Recorder) ThreadStarted(t *vm.Thread) {
	r.mu.Lock()
	r.threads[t.ID] = &threadState{t: t}
	r.mu.Unlock()
}

// ThreadExited is a no-op; vectors are global.
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
		Vectors:  make(map[int32][]int32),
		Syscalls: make(map[int32][]trace.SyscallRec),
	}
	for id, ts := range r.threads {
		log.Threads[id] = ts.t.Path
		if len(ts.syscalls) > 0 {
			log.Syscalls[int32(id)] = ts.syscalls
		}
		log.SpaceLongs += int64(len(ts.syscalls)) * trace.LongsPerSyscall
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for k, av := range sh.m {
			ids := make([]int32, len(av.recs))
			for i, rec := range av.recs {
				ids[i] = rec.tid
			}
			log.Vectors[k] = ids
			log.SpaceLongs += int64(len(ids))
		}
		sh.mu.RUnlock()
	}
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

// Replayer enforces each location vector's order: an access to key k blocks
// until the vector cursor names its thread.
type Replayer struct {
	log *Log

	mu      sync.Mutex
	cond    *sync.Cond
	cursors map[int32]int
	failed  bool
	reason  string
	last    time.Time

	threads sync.Map // *vm.Thread -> *replayThread

	// StallTimeout aborts a stuck replay.
	StallTimeout time.Duration
	stopOnce     sync.Once
	startOnce    sync.Once
	stop         chan struct{}
}

type replayThread struct {
	idx      int32
	syscalls []trace.SyscallRec
	sysPos   int
}

// NewReplayer builds a replayer for the log.
func NewReplayer(log *Log) *Replayer {
	r := &Replayer{
		log:          log,
		cursors:      make(map[int32]int),
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
			if !r.failed && time.Since(r.last) > r.StallTimeout {
				r.failed = true
				r.reason = "leap replay stalled"
				r.cond.Broadcast()
			}
			r.mu.Unlock()
		}
	}
}

// ThreadStarted resolves the thread's record-run identity by path.
func (r *Replayer) ThreadStarted(t *vm.Thread) {
	r.startOnce.Do(func() { go r.watchdog() })
	rt := &replayThread{idx: -1}
	for i, p := range r.log.Threads {
		if p == t.Path {
			rt.idx = int32(i)
			rt.syscalls = r.log.Syscalls[int32(i)]
			break
		}
	}
	if rt.idx < 0 {
		r.mu.Lock()
		r.failed = true
		r.reason = "replay created unknown thread " + t.Path
		r.mu.Unlock()
	}
	r.threads.Store(t, rt)
}

// ThreadExited is a no-op.
func (r *Replayer) ThreadExited(*vm.Thread) {}

// SharedAccess blocks until the location vector's cursor names this
// thread, performs the access, and only then advances the cursor: the next
// thread in the vector must not access the location before this access
// has happened.
func (r *Replayer) SharedAccess(a vm.Access, do func()) {
	v, ok := r.threads.Load(a.Thread)
	rt, _ := v.(*replayThread)
	if !ok || rt == nil || rt.idx < 0 {
		do()
		return
	}
	key := Key(a.Loc)
	vec := r.log.Vectors[key]
	r.mu.Lock()
	for {
		cur := r.cursors[key]
		if r.failed || cur >= len(vec) || vec[cur] == rt.idx {
			break
		}
		r.cond.Wait()
	}
	if !r.failed && r.cursors[key] >= len(vec) {
		// More accesses than recorded: divergence.
		r.failed = true
		r.reason = "leap replay: access vector exhausted"
	}
	r.mu.Unlock()
	do()
	r.mu.Lock()
	r.cursors[key]++
	r.last = time.Now()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Syscall substitutes the recorded value.
func (r *Replayer) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	if v, ok := r.threads.Load(t); ok {
		rt := v.(*replayThread)
		if rt.sysPos < len(rt.syscalls) && rt.syscalls[rt.sysPos].Seq == seq {
			val := rt.syscalls[rt.sysPos].Value
			rt.sysPos++
			return vm.IntVal(val)
		}
	}
	return compute()
}

// Record runs the program under the LEAP recorder.
func Record(prog *compiler.Program, seed uint64, instrument []bool, sleepUnit int64) (*Log, *vm.Result, time.Duration) {
	rec := NewRecorder()
	start := time.Now()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rec, Seed: seed,
		Instrument: instrument, SleepUnit: sleepUnit,
	})
	return rec.Finish(res, seed), res, time.Since(start)
}

// Replay re-executes the program under the log's per-location orders.
func Replay(prog *compiler.Program, log *Log, instrument []bool) (*vm.Result, bool, string) {
	rep := NewReplayer(log)
	defer rep.Stop()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rep, Seed: log.Seed,
		Instrument: instrument, ReplayMode: true,
	})
	failed, reason := rep.Failed()
	return res, failed, reason
}
