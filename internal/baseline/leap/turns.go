package leap

import (
	"sync"

	"repro/internal/trace"
	"repro/internal/vm"
)

// Turns is the turn-taking replay core that LEAP, Stride (which replays
// through LEAP) and Chimera share. Each tool's log is a sequence of turns;
// its replayer makes a thread wait at every recorded operation until the log
// says the turn is that thread's, and then takes the turn. Turns owns what
// the tools have in common: thread identity by spawn path, substitution of
// recorded syscall values, the failure record, and every wait for a turn,
// under one mutex and condition variable. A tool supplies only the predicate
// that says whether a thread's turn has come and the step that takes it.
//
// A stall is decided exactly, by Light's rule (DESIGN.md §4b), and no clock
// is read. In replay mode a thread blocks in two places only: in Await, and
// in join, whose ghost read of the joined thread's life location is followed
// by a real wait for that thread to exit. The replay has stalled when no live
// thread can run: each waits for a turn whose predicate still reads false, or
// joins a thread still live. With no thread live, turns left untaken are a
// stall too (an incomplete replay). checkStall runs under the mutex wherever
// a stall can begin: a thread starts waiting, a join begins, or a thread
// exits. The turn predicates re-read the tool's cursors each time, so a
// registration that outlives its wait cannot make a false stall.
type Turns struct {
	paths    []string
	syscalls map[int32][]trace.SyscallRec
	finished func() bool

	mu      sync.Mutex
	cond    *sync.Cond
	failed  bool
	reason  string
	threads []*Thread // by log index, nil until the thread starts
}

// Thread is one replay thread's state in the core.
type Thread struct {
	// Idx is the thread's index in the log, -1 for a thread the log does not
	// name. Such a thread fails the replay as it starts, and a failed replay
	// runs every thread free.
	Idx int32

	syscalls []trace.SyscallRec
	sysPos   int

	// The wait registration, guarded by Turns.mu: turn is the predicate the
	// thread waits on, nil when it is not waiting; joining is the thread it
	// last joined; exited is set once the thread exits.
	turn    func() bool
	joining *Thread
	exited  bool
}

// NewTurns builds the core for a log's thread table and recorded syscalls.
// finished reports whether every recorded turn has been taken; like every
// turn predicate and step, it runs under the core's mutex.
func NewTurns(threads []string, syscalls map[int32][]trace.SyscallRec, finished func() bool) *Turns {
	c := &Turns{
		paths:    threads,
		syscalls: syscalls,
		finished: finished,
		threads:  make([]*Thread, len(threads)),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Failed reports whether the replay diverged or stalled, with a reason.
func (c *Turns) Failed() (bool, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed, c.reason
}

// index returns the log index of the thread with the given spawn path, or -1.
func (c *Turns) index(path string) int32 {
	for i, p := range c.paths {
		if p == path {
			return int32(i)
		}
	}
	return -1
}

// Start resolves t's record-run identity by its spawn path; a thread the log
// does not name fails the replay. The VM announces a thread on the spawning
// goroutine, so the thread is live here before its parent can block on it.
func (c *Turns) Start(t *vm.Thread) *Thread {
	th := &Thread{Idx: c.index(t.Path)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if th.Idx < 0 {
		c.fail("replay created unknown thread " + t.Path)
		return th
	}
	th.syscalls = c.syscalls[th.Idx]
	c.threads[th.Idx] = th
	return th
}

// Exit marks th exited and checks for a stall: the exit may leave every live
// thread blocked, or none live with turns left.
func (c *Turns) Exit(th *Thread) {
	c.mu.Lock()
	defer c.mu.Unlock()
	th.exited = true
	c.checkStall()
}

// Await blocks th until turn reports true or the replay has failed. turn runs
// under the mutex, here and in the stall checks of other threads while th
// waits; once true it must stay true until th takes the turn, which holds
// when only the turn's owner can move the cursor it reads.
func (c *Turns) Await(th *Thread, turn func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed || turn() {
		return
	}
	th.turn, th.joining = turn, nil
	c.checkStall()
	for !c.failed && !turn() {
		c.cond.Wait()
	}
	th.turn = nil
}

// Advance takes a turn: step runs under the mutex, and then every waiter
// wakes to re-read its predicate. A non-empty result from step fails the
// replay with that reason.
func (c *Turns) Advance(step func() string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reason := step(); reason != "" {
		c.fail(reason)
	}
	c.cond.Broadcast()
}

// JoinBegins registers a join once th's read of another thread's life
// location has taken its turn: in replay mode the VM's join then blocks until
// that thread exits. Other accesses are ignored, so a tool calls it after
// every access it orders (light.Replayer.joinBegins does the same).
func (c *Turns) JoinBegins(th *Thread, a vm.Access) {
	if a.Loc.Off != vm.GhostLife || a.Kind != vm.Read {
		return
	}
	h, ok := a.Loc.Base.(*vm.ThreadHandle)
	if !ok || h == a.Thread.Handle {
		return // a thread's start read of its own life location
	}
	idx := c.index(h.Path)
	if idx < 0 {
		return // an unknown thread: the replay has failed already
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	th.joining = c.threads[idx]
	c.checkStall()
}

// checkStall fails the replay when no live thread can run. A waiter counts as
// blocked only while its predicate still reads false, and a joiner only while
// the thread it joins is live. A thread blocked anywhere else counts as
// runnable, which can delay a verdict but never make a false one; Chimera's
// patch locks are the one such place, and they never hold a stall up (see
// chimera.Replayer.EnterFunc). Callers hold c.mu.
func (c *Turns) checkStall() {
	if c.failed {
		return
	}
	live := false
	for _, o := range c.threads {
		switch {
		case o == nil || o.exited:
			continue
		case o.turn != nil && !o.turn():
		case o.turn == nil && o.joining != nil && !o.joining.exited:
		default:
			return // o can run
		}
		live = true
	}
	switch {
	case live:
		c.fail("replay stalled: every live thread waits for a turn that cannot come")
	case !c.finished():
		c.fail("replay incomplete: the last thread exited with recorded turns left")
	}
}

// fail records the first failure and wakes every waiter, which then runs
// free. Callers hold c.mu.
func (c *Turns) fail(reason string) {
	if !c.failed {
		c.failed, c.reason = true, reason
	}
	c.cond.Broadcast()
}

// Syscall substitutes the thread's next recorded value when it belongs to
// call seq; a call the log does not hold runs live.
func (th *Thread) Syscall(seq uint64, compute func() vm.Value) vm.Value {
	if th.sysPos < len(th.syscalls) && th.syscalls[th.sysPos].Seq == seq {
		v := th.syscalls[th.sysPos].Value
		th.sysPos++
		return vm.IntVal(v)
	}
	return compute()
}
