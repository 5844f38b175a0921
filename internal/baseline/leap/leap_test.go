package leap

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

func testObj() *vm.Object {
	cl := &compiler.Class{Name: "T", Fields: []int{0, 1, 2, 3, 4, 5}, SlotOf: map[int]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}}
	return vm.NewObject(cl)
}

func TestKeyClasses(t *testing.T) {
	g := &vm.GlobalsBase{}
	o1 := testObj()
	// Field keys are the field-name ID: two objects' same field conflate
	// (LEAP's field-granular design), distinct fields do not.
	if Key(vm.Loc{Base: o1, Off: 3}) != 3 {
		t.Errorf("field key = %d", Key(vm.Loc{Base: o1, Off: 3}))
	}
	if Key(vm.Loc{Base: o1, Off: 3}) == Key(vm.Loc{Base: o1, Off: 4}) {
		t.Error("distinct fields share a key")
	}
	// Ghost classes are distinct from each other and from data.
	keys := map[int32]string{}
	for name, loc := range map[string]vm.Loc{
		"monitor": {Base: o1, Off: vm.GhostMonitor},
		"life":    {Base: o1, Off: vm.GhostLife},
		"notify":  {Base: o1, Off: vm.GhostNotify},
		"map":     {Base: vm.NewMapObj(), Off: vm.GhostMapAll},
		"global":  vm.GlobalLoc(g, 0),
		"field":   {Base: o1, Off: 0},
	} {
		k := Key(loc)
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s on key %d", name, prev, k)
		}
		keys[k] = name
	}
}

func TestRecorderVectorsAreGlobalOrder(t *testing.T) {
	r := NewRecorder()
	t1 := &vm.Thread{ID: 1}
	t2 := &vm.Thread{ID: 2}
	r.ThreadStarted(t1)
	r.ThreadStarted(t2)
	o := testObj()
	loc := vm.Loc{Base: o, Off: 5}
	for i := 0; i < 3; i++ {
		r.SharedAccess(vm.Access{Thread: t1, Kind: vm.Write, Loc: loc, Counter: uint64(i)}, func() {})
		r.SharedAccess(vm.Access{Thread: t2, Kind: vm.Read, Loc: loc, Counter: uint64(i)}, func() {})
	}
	log := r.Finish(nil, 0)
	vec := log.Vectors[5]
	if len(vec) != 6 {
		t.Fatalf("vector = %v", vec)
	}
	for i, id := range vec {
		want := int32(1 + i%2)
		if id != want {
			t.Errorf("vec[%d] = %d, want %d", i, id, want)
		}
	}
	if log.SpaceLongs != 6 {
		t.Errorf("space = %d, want 6 (one long per access)", log.SpaceLongs)
	}
}

func TestReplayerRejectsUnknownThread(t *testing.T) {
	log := &Log{Threads: []string{"0"}}
	rep := NewReplayer(log)
	ghost := &vm.Thread{ID: 9, Path: "0.9"}
	rep.ThreadStarted(ghost)
	if failed, _ := rep.Failed(); !failed {
		t.Error("unknown thread not flagged")
	}
}

func TestReplayerVectorExhaustion(t *testing.T) {
	o := testObj()
	loc := vm.Loc{Base: o, Off: 1}
	log := &Log{
		Threads: []string{"0"},
		Vectors: map[int32][]int32{1: {0}}, // one recorded access
	}
	rep := NewReplayer(log)
	th := &vm.Thread{ID: 0, Path: "0"}
	rep.ThreadStarted(th)
	rep.SharedAccess(vm.Access{Thread: th, Kind: vm.Read, Loc: loc, Counter: 1}, func() {})
	if failed, _ := rep.Failed(); failed {
		t.Fatal("first access flagged")
	}
	rep.SharedAccess(vm.Access{Thread: th, Kind: vm.Read, Loc: loc, Counter: 2}, func() {})
	if failed, reason := rep.Failed(); !failed {
		t.Error("vector exhaustion not flagged")
	} else if reason == "" {
		t.Error("empty reason")
	}
}

// waiting reports whether t is registered as waiting for a turn.
func waiting(rep *Replayer, t *vm.Thread) bool {
	rep.turns.mu.Lock()
	defer rep.turns.mu.Unlock()
	return t.HookData.(*Thread).turn != nil
}

// startThreads announces one thread per spawn path, each with a handle.
func startThreads(rep *Replayer, paths ...string) []*vm.Thread {
	ts := make([]*vm.Thread, len(paths))
	for i, p := range paths {
		ts[i] = &vm.Thread{ID: i, Path: p, Handle: &vm.ThreadHandle{Path: p}}
		rep.ThreadStarted(ts[i])
	}
	return ts
}

// TestStallTurnHolderExits: thread 0 waits on a key whose vector names
// thread 1, and thread 1 exits. Nothing can take that turn any more, so the
// replay has stalled by the time ThreadExited returns.
func TestStallTurnHolderExits(t *testing.T) {
	loc := vm.Loc{Base: testObj(), Off: 1}
	rep := NewReplayer(&Log{Threads: []string{"0", "0.1"}, Vectors: map[int32][]int32{1: {1}}})
	ts := startThreads(rep, "0", "0.1")
	done := make(chan struct{})
	go func() {
		rep.SharedAccess(vm.Access{Thread: ts[0], Kind: vm.Read, Loc: loc, Counter: 1}, func() {})
		close(done)
	}()
	for !waiting(rep, ts[0]) {
		runtime.Gosched()
	}
	if failed, _ := rep.Failed(); failed {
		t.Fatal("flagged while the turn holder is live")
	}
	rep.ThreadExited(ts[1])
	failed, reason := rep.Failed()
	if !failed || !strings.Contains(reason, "stalled") {
		t.Fatalf("Failed() = %v, %q after the turn holder exited; want a stall", failed, reason)
	}
	<-done // the stall woke the waiter, which runs free
}

// TestStallWaitAfterTurnHolderExited is the same stall found from the other
// side: the turn holder has exited when thread 0 starts to wait.
func TestStallWaitAfterTurnHolderExited(t *testing.T) {
	loc := vm.Loc{Base: testObj(), Off: 1}
	rep := NewReplayer(&Log{Threads: []string{"0", "0.1"}, Vectors: map[int32][]int32{1: {1}}})
	ts := startThreads(rep, "0", "0.1")
	rep.ThreadExited(ts[1])
	if failed, reason := rep.Failed(); failed {
		t.Fatalf("flagged before anyone waits: %s", reason)
	}
	rep.SharedAccess(vm.Access{Thread: ts[0], Kind: vm.Read, Loc: loc, Counter: 1}, func() {})
	if failed, reason := rep.Failed(); !failed || !strings.Contains(reason, "stalled") {
		t.Fatalf("Failed() = %v, %q; want a stall", failed, reason)
	}
}

// TestStallJoinOfBlockedThread: thread 1 waits for a turn of thread 0, and
// thread 0 then joins thread 1. Neither can run, so the join's read of
// thread 1's life location flags the stall.
func TestStallJoinOfBlockedThread(t *testing.T) {
	data := vm.Loc{Base: testObj(), Off: 1}
	rep := NewReplayer(&Log{
		Threads: []string{"0", "0.1"},
		Vectors: map[int32][]int32{1: {0}, Key(vm.LifeLoc(&vm.ThreadHandle{})): {0}},
	})
	ts := startThreads(rep, "0", "0.1")
	done := make(chan struct{})
	go func() {
		rep.SharedAccess(vm.Access{Thread: ts[1], Kind: vm.Read, Loc: data, Counter: 1}, func() {})
		close(done)
	}()
	for !waiting(rep, ts[1]) {
		runtime.Gosched()
	}
	join := vm.Access{Thread: ts[0], Kind: vm.Read, Loc: vm.LifeLoc(ts[1].Handle), Counter: 1}
	rep.SharedAccess(join, func() {})
	if failed, reason := rep.Failed(); !failed || !strings.Contains(reason, "stalled") {
		t.Fatalf("Failed() = %v, %q after joining a blocked thread; want a stall", failed, reason)
	}
	<-done
}

// TestStallJoinOfRunnableThread: joining a thread that can still take its
// turns is no stall.
func TestStallJoinOfRunnableThread(t *testing.T) {
	rep := NewReplayer(&Log{
		Threads: []string{"0", "0.1"},
		Vectors: map[int32][]int32{Key(vm.LifeLoc(&vm.ThreadHandle{})): {0, 1}},
	})
	ts := startThreads(rep, "0", "0.1")
	rep.SharedAccess(vm.Access{Thread: ts[0], Kind: vm.Read, Loc: vm.LifeLoc(ts[1].Handle), Counter: 1}, func() {})
	if failed, reason := rep.Failed(); failed {
		t.Fatalf("joining a runnable thread flagged: %s", reason)
	}
	rep.SharedAccess(vm.Access{Thread: ts[1], Kind: vm.Write, Loc: vm.LifeLoc(ts[1].Handle), Counter: 1}, func() {})
	rep.ThreadExited(ts[1])
	rep.ThreadExited(ts[0])
	if failed, reason := rep.Failed(); failed {
		t.Fatalf("complete replay flagged: %s", reason)
	}
}
