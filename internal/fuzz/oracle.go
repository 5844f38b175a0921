package fuzz

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/stride"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/trace"
	"repro/internal/vm"
)

// CheckOptions configures one oracle evaluation of a generated program.
type CheckOptions struct {
	// ScheduleSeed seeds the VM scheduler of the record run.
	ScheduleSeed uint64
	// LightOpts selects the recorder variant (and may carry the test-only
	// fault-injection hook).
	LightOpts light.Options
	// UseO2 applies the static lock-subsumption instrumentation mask.
	UseO2 bool
	// SkipCross disables the serialized LEAP/Stride cross-check run.
	SkipCross bool
	// Perturb, when positive, runs the record run under schedule
	// perturbation at this intensity (lightfuzz -perturb): the fourth
	// oracle dimension. The noise only biases the recorded interleaving —
	// every oracle contract (replay reproduction, ground-truth dependence
	// cross-check, checker-valid schedule) must hold for noisy interleavings
	// exactly as for calm ones. The serialized cross-check run and the
	// replay stay unperturbed by construction.
	Perturb int
}

// Check runs every oracle against one MiniJ source. A nil return means all
// oracles agree; otherwise the error names the first divergence. The three
// oracle families mirror the tentpole spec:
//
//  1. record with Light and replay, asserting reproduction of flow
//     dependences (no divergence), per-thread behavior, bugs, and the final
//     shared-heap fingerprint;
//  2. cross-check Light's recorded dependence set against the ground truth
//     of a serialized run observed simultaneously by LEAP and Stride;
//  3. solve every recorded log once and validate the schedule with the
//     standalone checker.
func Check(src string, o CheckOptions) error {
	prog, err := compiler.CompileSource(src)
	if err != nil {
		return fmt.Errorf("generated program does not compile: %w", err)
	}
	an := analysis.Analyze(prog)
	mask := an.InstrumentMask(o.UseO2)
	cfg := light.RunConfig{
		Seed:              o.ScheduleSeed,
		Instrument:        mask,
		SleepUnit:         500,
		MaxStepsPerThread: 2_000_000,
	}
	if o.Perturb > 0 {
		cfg.Perturb = &vm.PerturbOptions{Seed: o.ScheduleSeed*0x9e3779b9 + 1, Intensity: o.Perturb}
	}

	rec := light.Record(prog, o.LightOpts, cfg)
	if err := checkSolve(rec.Log); err != nil {
		return err
	}
	if err := checkReplay(prog, rec, cfg); err != nil {
		return err
	}
	if !o.SkipCross {
		if err := crossCheck(prog, o); err != nil {
			return err
		}
	}
	return nil
}

// checkSolve solves the recorded log and requires the standalone checker
// to accept the schedule.
func checkSolve(log *trace.Log) error {
	sched, err := light.ComputeSchedule(log)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if err := light.CheckSchedule(log, sched); err != nil {
		return fmt.Errorf("schedule rejected: %w", err)
	}
	return nil
}

// checkReplay replays the recorded log and compares every observable of the
// replayed run against the record run.
func checkReplay(prog *compiler.Program, rec *light.RecordOutcome, cfg light.RunConfig) error {
	rep, err := light.Replay(prog, rec.Log, cfg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if rep.Diverged {
		return fmt.Errorf("replay diverged: %s", rep.Reason)
	}
	if len(rec.Result.Threads) != len(rep.Result.Threads) {
		return fmt.Errorf("replay thread count %d != recorded %d",
			len(rep.Result.Threads), len(rec.Result.Threads))
	}
	for path, tr := range rec.Result.Threads {
		got := rep.Result.Threads[path]
		if got == nil {
			return fmt.Errorf("replay missing thread %s", path)
		}
		if len(tr.Output) != len(got.Output) {
			return fmt.Errorf("thread %s output length %d (record) vs %d (replay)",
				path, len(tr.Output), len(got.Output))
		}
		for i := range tr.Output {
			if tr.Output[i] != got.Output[i] {
				return fmt.Errorf("thread %s output[%d]: %q (record) vs %q (replay)",
					path, i, tr.Output[i], got.Output[i])
			}
		}
		if (tr.Err == nil) != (got.Err == nil) || (tr.Err != nil && !tr.Err.SameBug(got.Err)) {
			return fmt.Errorf("thread %s bug %v (record) vs %v (replay)", path, tr.Err, got.Err)
		}
	}
	if !light.Reproduced(rec.Log, rep.Result) {
		return fmt.Errorf("bug set not reproduced (Definition 3.3 correlation broken)")
	}
	recFP := vm.HeapFingerprint(rec.Result.Globals)
	repFP := vm.HeapFingerprint(rep.Result.Globals)
	if recFP != repFP {
		return fmt.Errorf("final shared-heap state differs:\nrecord: %s\nreplay: %s", recFP, repFP)
	}
	return nil
}

// tee fans one run out to the Light, LEAP, and Stride recorders at once so
// all three observe the very same interleaving. Both the Light and Stride
// recorders keep their per-thread state in the single Thread.HookData slot,
// so the tee swaps each recorder's saved slot in and out around every
// delegated call. The tee's own mutex — together with the vm.Oracle wrapped
// around it, which serializes all shared accesses — makes the run a single
// global linearization that doubles as the ground truth.
type tee struct {
	lightRec  *light.Recorder
	leapRec   *leap.Recorder
	strideRec *stride.Recorder

	mu         sync.Mutex
	slotLight  map[*vm.Thread]any
	slotStride map[*vm.Thread]any
}

func newTee(lr *light.Recorder, pr *leap.Recorder, sr *stride.Recorder) *tee {
	return &tee{
		lightRec: lr, leapRec: pr, strideRec: sr,
		slotLight:  make(map[*vm.Thread]any),
		slotStride: make(map[*vm.Thread]any),
	}
}

func (te *tee) asLight(t *vm.Thread, f func()) {
	t.HookData = te.slotLight[t]
	f()
	te.slotLight[t] = t.HookData
	t.HookData = nil
}

func (te *tee) asStride(t *vm.Thread, f func()) {
	t.HookData = te.slotStride[t]
	f()
	te.slotStride[t] = t.HookData
	t.HookData = nil
}

func (te *tee) ThreadStarted(t *vm.Thread) {
	te.mu.Lock()
	defer te.mu.Unlock()
	te.asLight(t, func() { te.lightRec.ThreadStarted(t) })
	te.leapRec.ThreadStarted(t)
	te.asStride(t, func() { te.strideRec.ThreadStarted(t) })
}

func (te *tee) ThreadExited(t *vm.Thread) {
	te.mu.Lock()
	defer te.mu.Unlock()
	te.asLight(t, func() { te.lightRec.ThreadExited(t) })
	te.leapRec.ThreadExited(t)
	te.asStride(t, func() { te.strideRec.ThreadExited(t) })
}

// SharedAccess delegates to all three recorders; only Light runs the real
// heap operation — the others see a no-op so the access executes once.
func (te *tee) SharedAccess(a vm.Access, do func()) {
	te.mu.Lock()
	defer te.mu.Unlock()
	t := a.Thread
	te.asLight(t, func() { te.lightRec.SharedAccess(a, do) })
	te.leapRec.SharedAccess(a, func() {})
	te.asStride(t, func() { te.strideRec.SharedAccess(a, func() {}) })
}

// Syscall computes the live value once (under Light) and feeds the same
// value to the other recorders so all three logs agree.
func (te *tee) Syscall(t *vm.Thread, seq uint64, kind vm.SyscallKind, compute func() vm.Value) vm.Value {
	te.mu.Lock()
	defer te.mu.Unlock()
	var v vm.Value
	te.asLight(t, func() { v = te.lightRec.Syscall(t, seq, kind, compute) })
	te.leapRec.Syscall(t, seq, kind, func() vm.Value { return v })
	te.asStride(t, func() { te.strideRec.Syscall(t, seq, kind, func() vm.Value { return v }) })
	return v
}

// crossCheck runs the program once, serialized, observed simultaneously by
// the Light, LEAP, and Stride recorders plus the ground-truth oracle, and
// validates each log against the shared linearization. Instrumentation is
// full (no O2 mask) so every tool sees every access.
func crossCheck(prog *compiler.Program, o CheckOptions) error {
	lightRec := light.NewRecorder(o.LightOpts)
	leapRec := leap.NewRecorder()
	strideRec := stride.NewRecorder()
	te := newTee(lightRec, leapRec, strideRec)
	orc := vm.NewOracle(te)

	seed := o.ScheduleSeed + 1
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: orc, Seed: seed,
		SleepUnit: 100, MaxStepsPerThread: 2_000_000,
	})
	lightLog := lightRec.Finish(res, seed)
	leapLog := leapRec.Finish(res, seed)
	strideLog := strideRec.Finish(res, seed)
	events := orc.Events()

	if err := validateLightLog(events, lightLog); err != nil {
		return fmt.Errorf("light vs ground truth: %w", err)
	}
	if err := validateLeapLog(events, leapLog); err != nil {
		return fmt.Errorf("leap vs ground truth: %w", err)
	}
	if err := validateStrideLog(events, strideLog); err != nil {
		return fmt.Errorf("stride vs ground truth: %w", err)
	}
	if _, err := stride.Reconstruct(strideLog); err != nil {
		return fmt.Errorf("stride reconstruction: %w", err)
	}
	return nil
}

// flatEvent is one oracle event translated to log coordinates: thread index,
// access counter, first-touch location ID, and the ground-truth dependence.
type flatEvent struct {
	tid   int32
	c     uint64
	loc   int32
	write bool
	depT  int32
	depC  uint64
	raw   vm.Loc
}

// flatten converts the oracle's event list: thread paths become the log's
// thread indices, and locations are numbered in first-touch order — which,
// because the run was serialized, is exactly the order the Light recorder
// allocated its internal location IDs.
func flatten(events []vm.Event, threads []string) ([]flatEvent, int32, error) {
	pathIdx := make(map[string]int32, len(threads))
	for i, p := range threads {
		pathIdx[p] = int32(i)
	}
	locID := make(map[vm.Loc]int32)
	out := make([]flatEvent, 0, len(events))
	for _, e := range events {
		id, ok := locID[e.Loc]
		if !ok {
			id = int32(len(locID))
			locID[e.Loc] = id
		}
		tid, ok := pathIdx[e.ThreadPath]
		if !ok {
			return nil, 0, fmt.Errorf("thread %s accessed the heap but is absent from the log", e.ThreadPath)
		}
		fe := flatEvent{tid: tid, c: e.Counter, loc: id, write: e.Kind == vm.Write, raw: e.Loc}
		if !fe.write {
			if e.DepCounter == 0 {
				fe.depT = trace.InitialThread
			} else {
				dt, ok := pathIdx[e.DepPath]
				if !ok {
					return nil, 0, fmt.Errorf("dependence source thread %s absent from the log", e.DepPath)
				}
				fe.depT = dt
				fe.depC = e.DepCounter
			}
		}
		out = append(out, fe)
	}
	return out, int32(len(locID)), nil
}

// validateLightLog checks Light's log against the ground-truth linearization:
// every recorded dependence must name the true source, and — completeness —
// every read in the run must have its true source recoverable from the log
// under the paper's suppression rules (a covering Dep, or a covering Range
// whose interior reads resolve to the range's last own write or to the
// range's recorded source).
func validateLightLog(events []vm.Event, log *trace.Log) error {
	evs, nLocs, err := flatten(events, log.Threads)
	if err != nil {
		return err
	}
	if nLocs != log.NumLocs {
		return fmt.Errorf("log has %d locations, ground truth saw %d", log.NumLocs, nLocs)
	}

	type rkey struct {
		t, loc int32
	}
	depAt := make(map[trace.TC]trace.Dep, len(log.Deps))
	reads := make(map[trace.TC]bool)
	for _, e := range evs {
		if !e.write {
			reads[trace.TC{Thread: e.tid, Counter: e.c}] = true
		}
	}
	for _, d := range log.Deps {
		if !reads[d.R] {
			return fmt.Errorf("log dependence %+v names a reader that never read", d)
		}
		depAt[d.R] = d
	}
	ranges := make(map[rkey][]trace.Range)
	for _, r := range log.Ranges {
		ranges[rkey{r.Thread, r.Loc}] = append(ranges[rkey{r.Thread, r.Loc}], r)
	}
	// Per (thread, location) write counters, in increasing order (per-thread
	// counters are monotone, and the global list preserves thread order).
	writes := make(map[rkey][]uint64)
	for _, e := range evs {
		if e.write {
			k := rkey{e.tid, e.loc}
			writes[k] = append(writes[k], e.c)
		}
	}

	for _, e := range evs {
		if e.write {
			continue
		}
		want := trace.TC{Thread: e.depT, Counter: e.depC}
		self := trace.TC{Thread: e.tid, Counter: e.c}
		if d, ok := depAt[self]; ok {
			if d.Loc != e.loc {
				return fmt.Errorf("read t%d#%d: dep names location %d, truth is %d (%v)", e.tid, e.c, d.Loc, e.loc, e.raw)
			}
			if d.W != want {
				return fmt.Errorf("read t%d#%d loc %d: dep source %+v, truth %+v", e.tid, e.c, e.loc, d.W, want)
			}
			continue
		}
		var cover *trace.Range
		for i := range ranges[rkey{e.tid, e.loc}] {
			r := &ranges[rkey{e.tid, e.loc}][i]
			if r.Start <= e.c && e.c <= r.End {
				cover = r
				break
			}
		}
		if cover == nil {
			return fmt.Errorf("read t%d#%d loc %d (truth source %+v) is covered by no dependence and no range", e.tid, e.c, e.loc, want)
		}
		var got trace.TC
		switch {
		case e.c == cover.Start:
			if !cover.StartsWithRead {
				return fmt.Errorf("read t%d#%d starts range %+v which claims to start with a write", e.tid, e.c, *cover)
			}
			got = cover.W
		default:
			// Interior read: its source is the thread's own latest write
			// inside the range before it, or the range's recorded source.
			ws := writes[rkey{e.tid, e.loc}]
			var lastW uint64
			has := false
			for _, wc := range ws {
				if wc >= e.c {
					break
				}
				if wc >= cover.Start {
					lastW, has = wc, true
				}
			}
			if has {
				got = trace.TC{Thread: e.tid, Counter: lastW}
			} else {
				if !cover.StartsWithRead {
					return fmt.Errorf("interior read t%d#%d of write-led range %+v has no preceding own write", e.tid, e.c, *cover)
				}
				got = cover.W
			}
		}
		if got != want {
			return fmt.Errorf("read t%d#%d loc %d: range-recovered source %+v, truth %+v", e.tid, e.c, e.loc, got, want)
		}
	}
	return nil
}

// validateLeapLog checks that every LEAP access vector equals the
// ground-truth linearization projected onto LEAP's location classes.
func validateLeapLog(events []vm.Event, log *leap.Log) error {
	pathIdx := make(map[string]int32, len(log.Threads))
	for i, p := range log.Threads {
		pathIdx[p] = int32(i)
	}
	want := make(map[int32][]int32)
	for _, e := range events {
		tid, ok := pathIdx[e.ThreadPath]
		if !ok {
			return fmt.Errorf("thread %s absent from leap log", e.ThreadPath)
		}
		k := leap.Key(e.Loc)
		want[k] = append(want[k], tid)
	}
	if len(want) != len(log.Vectors) {
		return fmt.Errorf("leap recorded %d location classes, truth has %d", len(log.Vectors), len(want))
	}
	for k, w := range want {
		got := log.Vectors[k]
		if len(got) != len(w) {
			return fmt.Errorf("leap vector %d has %d accesses, truth %d", k, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Errorf("leap vector %d position %d: thread %d, truth %d", k, i, got[i], w[i])
			}
		}
	}
	return nil
}

// validateStrideLog re-derives every thread's version-link records from the
// ground-truth linearization and requires an exact match.
func validateStrideLog(events []vm.Event, log *stride.Log) error {
	pathIdx := make(map[string]int32, len(log.Threads))
	for i, p := range log.Threads {
		pathIdx[p] = int32(i)
	}
	type srec struct {
		key, version int32
		write        bool
	}
	vers := make(map[int32]int32)
	want := make(map[int32][]srec)
	for _, e := range events {
		tid, ok := pathIdx[e.ThreadPath]
		if !ok {
			return fmt.Errorf("thread %s absent from stride log", e.ThreadPath)
		}
		k := leap.Key(e.Loc)
		if e.Kind == vm.Write {
			vers[k]++
		}
		want[tid] = append(want[tid], srec{key: k, version: vers[k], write: e.Kind == vm.Write})
	}
	for tid, w := range want {
		got := log.PerTh[tid]
		if len(got) != len(w) {
			return fmt.Errorf("stride thread %d has %d records, truth %d", tid, len(got), len(w))
		}
		for i, g := range got {
			if g.Key() != w[i].key || g.Version() != w[i].version || g.IsWrite() != w[i].write {
				return fmt.Errorf("stride thread %d record %d: (key %d ver %d write %v), truth (key %d ver %d write %v)",
					tid, i, g.Key(), g.Version(), g.IsWrite(), w[i].key, w[i].version, w[i].write)
			}
		}
	}
	for tid, got := range log.PerTh {
		if len(got) > 0 && len(want[tid]) == 0 {
			return fmt.Errorf("stride thread %d recorded %d accesses the truth never saw", tid, len(got))
		}
	}
	return nil
}
