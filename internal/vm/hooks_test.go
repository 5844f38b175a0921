package vm

import (
	"runtime"
	"sync"
	"testing"
)

// spawnOrderHooks checks the ThreadStarted contract: a spawned thread is
// announced to the hooks before its parent makes another hook call.
type spawnOrderHooks struct {
	NopHooks
	mu      sync.Mutex
	started map[*Thread]bool
	spawned map[*Thread]*Thread // parent -> child spawned since its last call
	late    []string
}

func (h *spawnOrderHooks) ThreadStarted(t *Thread) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.started[t] = true
}

func (h *spawnOrderHooks) SharedAccess(a Access, do func()) {
	h.mu.Lock()
	if c := h.spawned[a.Thread]; c != nil {
		if !h.started[c] {
			h.late = append(h.late, c.Path)
		}
		delete(h.spawned, a.Thread)
	}
	if !h.started[a.Thread] {
		h.late = append(h.late, a.Thread.Path)
	}
	// The spawn is the parent's ghost write of the child's life location.
	if th, ok := a.Loc.Base.(*ThreadHandle); ok && a.Kind == Write && a.Loc.Off == GhostLife && th != a.Thread.Handle {
		h.spawned[a.Thread] = th.thread
	}
	h.mu.Unlock()
	do()
}

// TestThreadStartedOnSpawningGoroutine: the VM announces every thread before
// it or its parent can make another hook call, so a replayer counts a child
// live before its parent can block in join. On one proc the child's
// goroutine does not run before the parent continues, so announcing the
// child from its own goroutine would fail here.
func TestThreadStartedOnSpawningGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := &spawnOrderHooks{started: map[*Thread]bool{}, spawned: map[*Thread]*Thread{}}
	res := runSrc(t, `
fun w(k) { print(k); }
fun main() {
  var a = spawn w(1);
  var b = spawn w(2);
  join a;
  join b;
}
`, Config{Hooks: h})
	if b := res.FirstBug(); b != nil {
		t.Fatalf("unexpected bug: %v", b)
	}
	if len(h.started) != 3 {
		t.Errorf("%d threads announced, want 3", len(h.started))
	}
	if len(h.late) != 0 {
		t.Errorf("threads announced after a hook call that needed them: %v", h.late)
	}
}
