package vm

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
)

// Config configures a VM run.
type Config struct {
	Prog *compiler.Program

	// Hooks receives every instrumented shared access. Nil means NopHooks,
	// not an uninstrumented run: every site the Instrument mask selects
	// still bumps its thread's counter, builds its closure and calls the
	// hook, and every synchronization ghost access is dispatched. Only the
	// sites the mask leaves out run inline, with no closure.
	Hooks Hooks

	// Seed drives per-thread pseudo-randomness (random builtin).
	Seed uint64

	// MaxStepsPerThread bounds each thread's instruction count; 0 means the
	// default of 50M. Exceeding it kills the thread with ErrStepLimit.
	MaxStepsPerThread uint64

	// Instrument selects which static sites go through Hooks, indexed by
	// site ID. Nil instruments every heap-access site. Synchronization
	// sites (monitor/spawn/join/wait/notify) are always instrumented.
	Instrument []bool

	// ReplayMode disables real monitor blocking: synchronization reduces to
	// its ghost accesses, whose enforced total order already serializes
	// critical regions (Lemma 4.1/4.2). This is what makes a solver
	// schedule directly executable without re-introducing lock races. It
	// also makes the sleep builtin a no-op, since the enforced schedule
	// replaces timing-based interleaving.
	ReplayMode bool

	// SleepUnit is the duration of sleep(1) in nanoseconds (default 1000).
	SleepUnit int64

	// Perturb enables seeded schedule-perturbation: pseudo-random noise
	// (yield/spin/short-sleep) injected at every scheduling point. Ignored
	// in ReplayMode, where the enforced schedule replaces timing.
	Perturb *PerturbOptions
}

// ThreadResult is the per-thread outcome of a run.
type ThreadResult struct {
	Path    string
	Err     *RuntimeErr // nil if the thread terminated normally
	Output  []string
	Steps   uint64
	Counter uint64 // final D(t)
}

// Result is the outcome of one VM run.
type Result struct {
	Threads map[string]*ThreadResult
	// Bugs lists thread errors in a deterministic (path-sorted) order.
	Bugs []*RuntimeErr
	// TotalSteps is the sum of executed instructions across threads.
	TotalSteps uint64
	// Globals exposes the run's final global slots (and everything reachable
	// from them) so callers can compare shared-heap end states across runs.
	Globals *GlobalsBase
}

// FirstBug returns one bug deterministically (lowest thread path), or nil.
func (r *Result) FirstBug() *RuntimeErr {
	if len(r.Bugs) == 0 {
		return nil
	}
	return r.Bugs[0]
}

// Output returns the given thread's print output.
func (r *Result) Output(path string) []string {
	if tr, ok := r.Threads[path]; ok {
		return tr.Output
	}
	return nil
}

// VM executes one run of a compiled program.
type VM struct {
	cfg        Config
	prog       *compiler.Program
	hooks      Hooks
	branch     BranchHooks
	frames     FrameHooks
	globals    *GlobalsBase
	instrument []bool
	perturb    *PerturbOptions // nil when perturbation is off (or replaying)

	clock atomic.Int64

	mu      sync.Mutex
	results map[string]*ThreadResult
	nextTID int

	wg sync.WaitGroup

	maxSteps uint64
}

// New creates a VM for one run. A VM is single-use: call Run once.
func New(cfg Config) *VM {
	if cfg.Prog == nil {
		panic("vm: Config.Prog is nil")
	}
	hooks := cfg.Hooks
	if hooks == nil {
		hooks = NopHooks{}
	}
	maxSteps := cfg.MaxStepsPerThread
	if maxSteps == 0 {
		maxSteps = 50_000_000
	}
	v := &VM{
		cfg:        cfg,
		prog:       cfg.Prog,
		hooks:      hooks,
		globals:    &GlobalsBase{Slots: make([]Value, len(cfg.Prog.Globals))},
		instrument: cfg.Instrument,
		results:    make(map[string]*ThreadResult),
		maxSteps:   maxSteps,
	}
	if cfg.Perturb != nil && !cfg.ReplayMode {
		v.perturb = cfg.Perturb
	}
	if bh, ok := hooks.(BranchHooks); ok {
		v.branch = bh
	}
	if fh, ok := hooks.(FrameHooks); ok {
		v.frames = fh
	}
	return v
}

// Run executes the program: globals initializer, then main, waiting for all
// spawned threads to terminate.
func Run(cfg Config) *Result {
	return New(cfg).Run()
}

// Run executes the program to completion.
func (v *VM) Run() *Result {
	main := v.newThread(nil, "0")
	v.wg.Add(1)
	v.hooks.ThreadStarted(main)
	go func() {
		defer v.wg.Done()
		err := func() *RuntimeErr {
			if _, e := v.exec(main, v.prog.GlobalInit, nil); e != nil {
				return e
			}
			_, e := v.exec(main, v.prog.Funs[v.prog.MainID], nil)
			return e
		}()
		v.finishThread(main, err)
	}()
	v.wg.Wait()

	res := &Result{Threads: v.results, Globals: v.globals}
	paths := make([]string, 0, len(v.results))
	for p := range v.results {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		tr := v.results[p]
		res.TotalSteps += tr.Steps
		if tr.Err != nil {
			res.Bugs = append(res.Bugs, tr.Err)
		}
	}
	return res
}

func (v *VM) newThread(parent *Thread, path string) *Thread {
	v.mu.Lock()
	id := v.nextTID
	v.nextTID++
	v.mu.Unlock()
	t := &Thread{
		VM:       v,
		Path:     path,
		ID:       id,
		rngState: seedFor(v.cfg.Seed, path),
		uidNext:  (uint64(id) + 2) << 40, // disjoint per-thread UID ranges
	}
	t.Handle = &ThreadHandle{Path: path, Done: make(chan struct{}), UID: t.nextUID()}
	return t
}

// prepareChild allocates the child thread and its handle so that the parent
// can emit the spawn ghost write against the handle's life location before
// the child starts running.
func (v *VM) prepareChild(parent *Thread) *ThreadHandle {
	parent.spawnCount++
	path := parent.Path + "." + strconv.Itoa(parent.spawnCount)
	child := v.newThread(parent, path)
	child.Handle.thread = child
	return child.Handle
}

// startChild launches the prepared child on its own goroutine. The child is
// announced to the hooks here, on the parent's goroutine, so it is live
// before the parent can block (see Hooks.ThreadStarted).
func (v *VM) startChild(_ *Thread, h *ThreadHandle, fn *compiler.Func, args []Value) {
	child := h.thread
	v.wg.Add(1)
	v.hooks.ThreadStarted(child)
	go func() {
		defer v.wg.Done()
		// First transition of the child: ghost read of the life location,
		// pairing with the parent's spawn write (Section 4.3).
		v.ghostAccess(child, Read, LifeLoc(h), false)
		_, err := v.exec(child, fn, args)
		v.finishThread(child, err)
	}()
}

// finishThread performs thread-death bookkeeping: unwinds monitors, emits
// the ghost exit write (which joiners read), flushes hooks, publishes the
// result, and signals joiners.
func (v *VM) finishThread(t *Thread, err *RuntimeErr) {
	t.releaseAllHeld()
	v.ghostAccess(t, Write, LifeLoc(t.Handle), false)
	v.hooks.ThreadExited(t)
	t.Handle.Err = err
	v.mu.Lock()
	v.results[t.Path] = &ThreadResult{
		Path:    t.Path,
		Err:     err,
		Output:  t.output,
		Steps:   t.steps,
		Counter: t.Counter,
	}
	v.mu.Unlock()
	close(t.Handle.Done)
}

// ghostAccess performs a synchronization ghost access: there is no real heap
// slot, so do is a no-op, but recorders still see a read/write of the ghost
// location and replayers still gate it.
func (v *VM) ghostAccess(t *Thread, k AccessKind, loc Loc, preAtomic bool) {
	c := t.NextCounter()
	v.hooks.SharedAccess(Access{Thread: t, Kind: k, Loc: loc, Site: -1, Counter: c, PreAtomic: preAtomic}, func() {})
}

// instrumented reports whether the given site goes through hooks.
func (v *VM) instrumented(site int) bool {
	if site < 0 {
		return false
	}
	if v.instrument == nil {
		return true
	}
	return v.instrument[site]
}

// Globals exposes the globals base (tests and tools inspect final state).
func (v *VM) Globals() *GlobalsBase { return v.globals }

// now advances and returns the virtual clock (time builtin).
func (v *VM) now() int64 { return v.clock.Add(1) }

func (v *VM) runtimeErr(t *Thread, fn *compiler.Func, pc int, kind ErrKind, val string, format string, args ...any) *RuntimeErr {
	return &RuntimeErr{
		Kind:       kind,
		Msg:        fmt.Sprintf(format, args...),
		FuncID:     fn.ID,
		PC:         pc,
		Pos:        fn.Code[pc].Pos,
		ThreadPath: t.Path,
		Counter:    t.Counter,
		Value:      val,
	}
}
