package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/epoch"
	"repro/internal/light"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
)

// workload is one program family the benchmark runs. BENCHMARK.json and
// bench/README.md give the reason for each.
type workload struct {
	name string
	gen  func(*rng) string
	// sessionShare is the part of each round given to the always-on
	// phase; the rest goes to record/reproduce iterations.
	sessionShare float64
	// preSolve runs sessions as lightd does by default, solving each
	// sealed epoch in the background while the next one records. Only
	// always-on turns it on: on 2 cores the background solve changes how
	// the recorded threads interleave, and on a program with a costly
	// solve that makes the logs, and so the epoch replays, vary run to run.
	preSolve bool
}

var workloads = []workload{
	{name: "kernel-stripes", gen: genStripes, sessionShare: 0.3},
	{name: "racy-dense", gen: genRacy, sessionShare: 0.5},
	{name: "monitor-handoff", gen: genHandoff, sessionShare: 0.3},
	{name: "always-on", gen: genService, sessionShare: 0.75, preSolve: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Fixed run shape.
const (
	// setupPasses run before the first round, one more before each later
	// round; a pass compiles, analyzes and runs one untimed warm-up
	// iteration.
	setupPasses = 3
	// rounds interleave the iterations with the always-on phase, so both
	// sample the host over the whole run: a shared host's speed drifts on
	// a scale of seconds, and a phase measured in one block would see a
	// different host than the other.
	rounds     = 8
	epochRuns  = 8 // runs per always-on epoch
	smokeIters = 3
	smokeRuns  = 2 * epochRuns
)

// ledger counts verification operations: every check the benchmark makes
// on a layer's output is one attempted operation.
type ledger struct {
	attempted, failed int
	failures          map[string]int
}

// op records one verification outcome and returns it.
func (l *ledger) op(name string, ok bool) bool {
	l.attempted++
	if !ok {
		l.failed++
		if l.failures == nil {
			l.failures = map[string]int{}
		}
		l.failures[name]++
	}
	return ok
}

// env is everything one workload run shares across iterations.
type env struct {
	w        workload
	src      string
	prog     *compiler.Program
	maskO2   []bool
	maskAll  []bool
	opts     light.Options
	vmSeed   uint64 // iteration i runs under vmSeed+i
	sessSeed uint64 // always-on run i runs under sessSeed+i
	traced   bool
	tr       *tracer
	led      ledger
}

func newEnv(w workload, seed uint64, traced bool) *env {
	r := &rng{s: seed}
	e := &env{w: w, src: w.gen(r), opts: light.Options{O1: true}, traced: traced}
	e.vmSeed = r.next() >> 16
	e.sessSeed = r.next() >> 16
	e.tr = newTracer(traced, w.name)
	return e
}

// sample is one iteration's measurements.
type sample struct {
	ok                                       bool
	native, nop, record, recordObs           time.Duration
	encode, decode, solve, replay, reproduce time.Duration
	check, ttfr                              time.Duration
	allocBytes                               uint64
	logBytes, events                         int
	accesses, steps                          uint64
	stats                                    light.ScheduleStats
	stream                                   light.StreamStats
	counters                                 light.RecorderCounters
	gatedWaits, blindSuppressed              uint64
	warmHits                                 int
}

// setup compiles and analyzes the program and runs one warm-up iteration;
// it returns the time all three took, and the compile and analyze times.
func (e *env) setup(pass int) (total, compile, analyze time.Duration, err error) {
	start := time.Now()
	e.tr.group = fmt.Sprintf("setup-%d", pass)
	m := e.tr.begin("compiler.compile")
	prog, err := compiler.CompileSource(e.src)
	compile = e.tr.end(m)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: compiling generated program: %w", e.w.name, err)
	}
	m = e.tr.begin("analysis.analyze")
	an := analysis.Analyze(prog)
	analyze = e.tr.end(m)
	e.prog, e.maskO2, e.maskAll = prog, an.InstrumentMask(true), an.InstrumentMask(false)
	e.iterate(-1)
	return time.Since(start), compile, analyze, nil
}

// iterate runs one record → encode → reproduce → verify → record-and-solve
// pass. Iteration -1 is a warm-up: it runs the same steps, but its
// outcome is not counted.
func (e *env) iterate(iter int) sample {
	led := &e.led
	if iter < 0 {
		led = &ledger{}
	} else {
		e.tr.group = fmt.Sprintf("iter-%d", iter)
	}
	s := sample{ok: true}
	check := func(name string, ok bool) bool {
		if !led.op(name, ok) {
			s.ok = false
		}
		return ok
	}
	seed := e.vmSeed + uint64(max(iter, 0))
	cfg := light.RunConfig{Seed: seed, Instrument: e.maskO2}
	root := e.tr.begin("iteration")
	defer e.tr.end(root)

	runtime.GC()
	m := e.tr.begin("vm.native")
	native := vm.Run(vm.Config{Prog: e.prog, Seed: seed, Instrument: e.maskAll})
	s.native = e.tr.end(m)
	check("native", len(native.Bugs) == 0)
	s.steps = native.TotalSteps

	if e.traced {
		// The dispatch rung: the O2 mask through hooks that only run the
		// access, so record minus this is the recorder's own cost.
		runtime.GC()
		m = e.tr.begin("vm.nop_hooks")
		vm.Run(vm.Config{Prog: e.prog, Hooks: vm.NopHooks{}, Seed: seed, Instrument: e.maskO2})
		s.nop = e.tr.end(m)
		obs.Disable() // the record below is timed as in an untraced run
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m = e.tr.begin("light.record")
	rec := light.Record(e.prog, e.opts, cfg)
	s.record = e.tr.end(m)
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	check("record", len(rec.Result.Bugs) == 0)
	for _, tr := range rec.Result.Threads {
		s.accesses += tr.Counter
	}
	s.events = rec.Log.Events()

	if e.traced {
		// The same record with obs counters on: its counter deltas are the
		// recorder's per-layer counts, and its time over the record above
		// is what tracing costs.
		obs.Enable()
		runtime.GC()
		before := light.SnapshotRecorderCounters()
		m = e.tr.begin("light.record.traced")
		light.Record(e.prog, e.opts, cfg)
		s.recordObs = e.tr.end(m)
		s.counters = light.SnapshotRecorderCounters().Sub(before)
	}

	var buf bytes.Buffer
	m = e.tr.begin("trace.encode")
	err := trace.Encode(&buf, rec.Log)
	s.encode = e.tr.end(m)
	check("encode", err == nil)
	s.logBytes = buf.Len()

	// reproduce: decode, cold solve, replay.
	m = e.tr.begin("reproduce")
	md := e.tr.begin("trace.decode")
	log, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	s.decode = e.tr.end(md)
	var sched *light.Schedule
	var out *light.ReplayOutcome
	if check("decode", err == nil) {
		msolve := e.tr.begin("light.solve")
		light.ResetScheduleCache()
		sched, err = light.ComputeSchedule(log)
		s.solve = e.tr.end(msolve)
		if check("solve", err == nil) {
			before := obs.TakeSnapshot()
			mr := e.tr.begin("light.replay")
			out, err = light.ReplayScheduled(e.prog, log, cfg, sched, s.solve)
			s.replay = e.tr.end(mr)
			check("replay", err == nil)
			delta := obs.TakeSnapshot().Delta(before)
			s.gatedWaits = delta.Counter("light_replay_gated_waits_total")
			s.blindSuppressed = delta.Counter("light_replay_blind_writes_suppressed_total")
			s.stats = sched.Stats
		}
	}
	s.reproduce = e.tr.end(m)

	if out != nil {
		m = e.tr.begin("light.check")
		check("checker", light.CheckSchedule(log, sched) == nil)
		s.check = e.tr.end(m)
		check("divergence", !out.Diverged)
		check("reproduced", light.Reproduced(log, out.Result))
		check("output", sameOutputs(rec.Result, out.Result))
		check("fingerprint", vm.HeapFingerprint(rec.Result.Globals) == vm.HeapFingerprint(out.Result.Globals))

		if e.traced {
			// Warm-cache re-solves: one call fills the whole-schedule
			// cache, the next two should hit it.
			m = e.tr.begin("light.cache.warm")
			light.ComputeScheduleCached(log)
			for i := 0; i < 2; i++ {
				if _, hit, err := light.ComputeScheduleCached(log); err == nil && hit {
					s.warmHits++
				}
			}
			e.tr.end(m)
		}
	}

	light.ResetScheduleCache()
	m = e.tr.begin("light.record_and_solve")
	_, sched2, st, _, err := light.RecordAndSolve(e.prog, e.opts, cfg, 0)
	s.ttfr = e.tr.end(m)
	s.stream = st
	if check("stream.solve", err == nil) {
		check("stream.checker", light.CheckSchedule(sched2.Log, sched2) == nil)
	}
	return s
}

// sameOutputs reports whether both runs have the same threads with the
// same printed output.
func sameOutputs(a, b *vm.Result) bool {
	if len(a.Threads) != len(b.Threads) {
		return false
	}
	for path, ta := range a.Threads {
		tb, ok := b.Threads[path]
		if !ok || !slices.Equal(ta.Output, tb.Output) {
			return false
		}
	}
	return true
}

// alwaysOn is the always-on phase: one epoch store that every round's
// session records into, and what the sessions and the epoch replays
// measured.
type alwaysOn struct {
	store        *epoch.Store
	dir          string
	runs         int // runs recorded so far, across sessions
	preSolved    int
	replayedUpTo uint64 // highest epoch ID verified
	sessionTime  time.Duration
	replayTime   time.Duration
	// Per full (8-run) epoch: its sealed telemetry row, the cold
	// ReplayEpoch time, and both per run as multiples of the median
	// native run of the same round.
	rows          []epoch.Telemetry
	epochReplayMS []float64
	sessionX      []float64
	epochReplayX  []float64
}

func openAlwaysOn(work string) (*alwaysOn, error) {
	dir := filepath.Join(work, fmt.Sprintf("store-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	store, _, err := epoch.Open(epoch.StoreOptions{Dir: dir, RetainEpochs: -1, Logger: quiet})
	if err != nil {
		return nil, fmt.Errorf("opening epoch store: %w", err)
	}
	return &alwaysOn{store: store, dir: dir}, nil
}

// close closes the store and deletes its directory.
func (a *alwaysOn) close() error {
	err := a.store.Close()
	if rmErr := os.RemoveAll(a.dir); err == nil {
		err = rmErr
	}
	return err
}

// runsFor sizes the next session in whole epochs so that recording and
// replaying them takes about d, at the per-run cost of the sessions so
// far; before the first, a run is priced at three times the latest
// iteration's record time.
func (a *alwaysOn) runsFor(d time.Duration, samples []sample) int {
	var perRun time.Duration
	if a.runs > 0 {
		perRun = (a.sessionTime + a.replayTime) / time.Duration(a.runs)
	} else if len(samples) > 0 {
		perRun = 3 * samples[len(samples)-1].record
	}
	if perRun <= 0 {
		return epochRuns
	}
	return max(1, int(d/(perRun*epochRuns))) * epochRuns
}

// session records maxRuns runs of the program through one epoch session,
// then loads every epoch it sealed and replays it on a cold schedule
// cache: whether pre-solve keeps up with recording depends on timing, so
// a replay that could hit its cache would time a mix of two paths.
// nativeMS is the median native run of the round's iterations.
func (e *env) session(a *alwaysOn, round, maxRuns int, nativeMS float64) {
	e.tr.group = fmt.Sprintf("session-%d", round)
	m := e.tr.begin("epoch.session")
	sess, err := epoch.StartSession(a.store, epoch.SessionConfig{
		Source: e.src, SeedBase: e.sessSeed + uint64(a.runs), EpochRuns: epochRuns, PreSolve: e.w.preSolve, MaxRuns: maxRuns,
	})
	if !e.led.op("session.start", err == nil) {
		e.tr.end(m)
		return
	}
	sess.Wait()
	a.sessionTime += e.tr.end(m)
	st := sess.Status()
	e.led.op("session", st.Err == "")
	a.runs += st.RunsTotal
	a.preSolved += st.PreSolved

	m = e.tr.begin("epoch.verify")
	for _, meta := range a.store.Epochs() {
		if meta.ID <= a.replayedUpTo {
			continue
		}
		a.replayedUpTo = meta.ID
		ml := e.tr.begin("epoch.load")
		data, err := a.store.Load(meta.ID)
		e.tr.end(ml)
		if !e.led.op("epoch.load", err == nil) {
			continue
		}
		light.ResetScheduleCache()
		mr := e.tr.begin("epoch.replay")
		v, err := epoch.ReplayEpoch(data, -1)
		dr := e.tr.end(mr)
		e.led.op("epoch.verdict", err == nil && v.Pass && len(v.Runs) == meta.Runs)
		if meta.Runs == epochRuns && data.Telemetry != nil {
			t := *data.Telemetry
			a.rows = append(a.rows, t)
			a.epochReplayMS = append(a.epochReplayMS, ms(dr))
			a.sessionX = append(a.sessionX, float64(t.WallNS)/1e6/epochRuns/nativeMS)
			a.epochReplayX = append(a.epochReplayX, ms(dr)/epochRuns/nativeMS)
		}
	}
	a.replayTime += e.tr.end(m)
}
