// Package clap reimplements the computation-based CLAP approach (Huang,
// Zhang, Dolby, PLDI 2013), the paper's non-record-based comparison point.
// CLAP records only thread-local information — branch outcomes and
// nondeterministic input values — and reconstructs the cross-thread order
// offline by symbolic reasoning: each thread is re-executed symbolically
// along its recorded path, shared reads become symbols, and a solver search
// matches reads to writes so that all path conditions hold.
//
// Its recording is the cheapest of all tools, but the offline stage inherits
// the solver's expressiveness limits: values that flow through operations
// with no symbolic counterpart — shared HashMaps, hashing, string
// conversion of symbolic data, nonlinear or symbolic-divisor arithmetic —
// make the reconstruction fail. Section 5.3 reports exactly this on 5 of
// the 8 bugs ("data types that do not have native solver support, such as
// HashMap"), and this implementation fails on the same class of programs.
package clap

import (
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Log is a CLAP recording: purely thread-local data.
type Log struct {
	Seed    uint64
	Threads []string
	// Branches maps thread index to its branch-outcome stream.
	Branches map[int32][]bool
	// Accesses maps thread index to its shared-access count (used to stop
	// the symbolic re-execution where the thread stopped, e.g. at a crash).
	Accesses map[int32]uint64
	Syscalls map[int32][]trace.SyscallRec
	Bugs     []trace.Bug
	// SpaceLongs counts branch bits packed 64 per long, plus syscalls and
	// one long per thread for the access count.
	SpaceLongs int64
}

// Recorder implements vm.Hooks + vm.BranchHooks with thread-local logging
// only: shared accesses pass through untouched.
type Recorder struct {
	mu      sync.Mutex
	threads map[int]*threadState
}

type threadState struct {
	t        *vm.Thread
	branches []bool
	accesses uint64
	syscalls []trace.SyscallRec
}

// NewRecorder creates a CLAP recorder.
func NewRecorder() *Recorder {
	return &Recorder{threads: make(map[int]*threadState)}
}

func (r *Recorder) state(t *vm.Thread) *threadState {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := r.threads[t.ID]
	if ts == nil {
		ts = &threadState{t: t}
		r.threads[t.ID] = ts
	}
	return ts
}

// SharedAccess performs the access with no recording (only counted).
func (r *Recorder) SharedAccess(a vm.Access, do func()) {
	do()
	ts := r.state(a.Thread)
	ts.accesses = a.Counter
}

// OnBranch appends the branch outcome to the thread's path log.
func (r *Recorder) OnBranch(t *vm.Thread, _ int, taken bool) {
	ts := r.state(t)
	ts.branches = append(ts.branches, taken)
}

// Syscall records the live value.
func (r *Recorder) Syscall(t *vm.Thread, seq uint64, _ vm.SyscallKind, compute func() vm.Value) vm.Value {
	val := compute()
	ts := r.state(t)
	ts.syscalls = append(ts.syscalls, trace.SyscallRec{Seq: seq, Value: val.I})
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
		Branches: make(map[int32][]bool),
		Accesses: make(map[int32]uint64),
		Syscalls: make(map[int32][]trace.SyscallRec),
	}
	for id, ts := range r.threads {
		log.Threads[id] = ts.t.Path
		log.Branches[int32(id)] = ts.branches
		log.Accesses[int32(id)] = ts.accesses
		log.SpaceLongs += int64(len(ts.branches)+63)/64 + 1
		if len(ts.syscalls) > 0 {
			log.Syscalls[int32(id)] = ts.syscalls
			log.SpaceLongs += int64(len(ts.syscalls)) * trace.LongsPerSyscall
		}
	}
	log.Bugs = trace.BugsOf(res)
	return log
}

// Record runs the program under the CLAP recorder.
func Record(prog *compiler.Program, seed uint64, instrument []bool, sleepUnit int64) (*Log, *vm.Result, time.Duration) {
	rec := NewRecorder()
	start := time.Now()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rec, Seed: seed,
		Instrument: instrument, SleepUnit: sleepUnit,
	})
	return rec.Finish(res, seed), res, time.Since(start)
}
