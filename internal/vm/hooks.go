package vm

import "sync"

// AccessKind distinguishes reads from writes of shared locations.
type AccessKind uint8

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// String renders the access kind as R or W.
func (k AccessKind) String() string {
	if k == Read {
		return "R"
	}
	return "W"
}

// Access describes one dynamic shared access as seen by a hook.
type Access struct {
	Thread  *Thread
	Kind    AccessKind
	Loc     Loc
	Site    int    // static site ID (compiler.Site), -1 for implicit accesses
	Counter uint64 // the thread-local counter value D(t) of this access
	// Slot is the resolved storage slot of the location (field slot index,
	// array element index, global ID, 0 for whole-map locations); it lets
	// ShadowCell find the location's shadow cell, and so the recorder's
	// location ID, without a lookup.
	Slot int

	// PreAtomic reports that the VM already guarantees atomicity between
	// this access and any concurrent access to the same location (ghost
	// accesses performed inside a monitor region). Recorders may then skip
	// their own synchronization, as Section 4.3 observes.
	PreAtomic bool
}

// SyscallKind tags a nondeterministic builtin whose result is recorded in
// the original run and substituted during replay (Section 3.2).
type SyscallKind uint8

// Syscall kinds.
const (
	SysTime SyscallKind = iota
	SysRandom
)

// Hooks is the instrumentation interface. A nil Config.Hooks runs NopHooks,
// which still dispatches every instrumented access (see Config.Hooks).
// Implementations include the Light recorder, the Leap/Stride baselines, the
// replay scheduler, and the test oracle.
//
// SharedAccess must invoke do at most once; do performs the underlying heap
// operation. Not invoking do is how the replayer suppresses blind writes
// (Section 4.2). The VM has already incremented the thread counter; the
// access carries the counter value.
type Hooks interface {
	SharedAccess(a Access, do func())

	// Syscall wraps a nondeterministic builtin: compute produces the live
	// value; a recorder logs it, a replayer returns the logged value
	// without calling compute.
	Syscall(t *Thread, seq uint64, kind SyscallKind, compute func() Value) Value

	// ThreadStarted announces a thread before it runs. The VM calls it on
	// the spawning goroutine: for main in Run, and for a child in the
	// parent, after the spawn's ghost life-write and before the child's
	// goroutine starts (so before the child's ghost start-read). A thread
	// is therefore known to the hooks before its parent can block on
	// anything. What ThreadStarted stores in t.HookData is visible to the
	// thread's own goroutine.
	ThreadStarted(t *Thread)
	// ThreadExited runs on the thread's own goroutine after its ghost exit
	// life-write and before joiners can see it exit (Done closes after).
	ThreadExited(t *Thread)
}

// BranchHooks is implemented by hooks that additionally record control-flow
// decisions (the Clap baseline's path log). The VM probes for it once.
type BranchHooks interface {
	OnBranch(t *Thread, branchID int, taken bool)
}

// FrameHooks is implemented by hooks that intercept function entry and exit
// (the Chimera baseline patches methods with locks at this granularity).
// ExitFunc runs even when the function terminates with an error.
type FrameHooks interface {
	EnterFunc(t *Thread, fn int)
	ExitFunc(t *Thread, fn int)
}

// NopHooks is a Hooks that performs accesses directly with no recording.
// It exists so wrappers always have an inner hook to delegate to.
type NopHooks struct{}

// nopRaceMu serializes NopHooks accesses in race builds (RaceDetector).
var nopRaceMu sync.Mutex

// SharedAccess performs the access.
func (NopHooks) SharedAccess(_ Access, do func()) {
	if RaceDetector {
		nopRaceMu.Lock()
		defer nopRaceMu.Unlock()
	}
	do()
}

// Syscall evaluates the live value.
func (NopHooks) Syscall(_ *Thread, _ uint64, _ SyscallKind, compute func() Value) Value {
	return compute()
}

// ThreadStarted is a no-op.
func (NopHooks) ThreadStarted(*Thread) {}

// ThreadExited is a no-op.
func (NopHooks) ThreadExited(*Thread) {}
