package epoch

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// SessionConfig describes one always-on recording session: which program
// to record, how runs are seeded, and when epochs are cut.
type SessionConfig struct {
	// Workload names a workload from the built-in registry
	// (workloads.ByName, including the flaky and parallel families).
	// Leave empty and set Source to record an ad-hoc program.
	Workload string `json:"workload,omitempty"`
	// Source is MiniJ program text recorded when Workload is empty.
	Source string `json:"source,omitempty"`
	// SeedBase seeds run i at SeedBase+i, so a session's runs are
	// individually re-runnable.
	SeedBase uint64 `json:"seed_base"`
	// EpochRuns cuts an epoch after this many runs (0 = DefaultEpochRuns).
	EpochRuns int `json:"epoch_runs,omitempty"`
	// EpochInterval additionally cuts when this much wall-clock time has
	// passed since the epoch opened (0 = run-count cuts only). Cuts
	// happen at run boundaries — the first boundary past the deadline.
	EpochInterval time.Duration `json:"epoch_interval,omitempty"`
	// NoO1 and NoO2 disable the recording reductions (both default on,
	// matching lightrr).
	NoO1 bool `json:"no_o1,omitempty"`
	NoO2 bool `json:"no_o2,omitempty"`
	// SleepUnit scales the sleep builtin during record runs.
	SleepUnit int64 `json:"sleep_unit,omitempty"`
	// MaxRuns stops the session after this many total runs (0 = record
	// until stopped); the trailing partial epoch is sealed.
	MaxRuns int `json:"max_runs,omitempty"`
	// PreSolve pipelines schedule synthesis with recording: after each
	// seal, the sealed epoch's runs are solved in a background goroutine
	// (through the whole-schedule cache) while the next epoch records, so
	// an on-demand replay of a recent epoch usually finds its schedules
	// already cached. At most one pre-solve runs at a time; when solving
	// is slower than recording, whole epochs are skipped rather than
	// queued — recording never waits.
	PreSolve bool `json:"presolve,omitempty"`
}

// DefaultEpochRuns is the epoch run-count cut when SessionConfig.EpochRuns
// is zero.
const DefaultEpochRuns = 8

// SessionStatus is a point-in-time snapshot of a session for /status.
type SessionStatus struct {
	// Workload is the resolved workload name.
	Workload string `json:"workload"`
	// Running reports whether the record loop is still going.
	Running bool `json:"running"`
	// RunsTotal counts completed record runs across all epochs.
	RunsTotal int `json:"runs_total"`
	// EpochsCut counts clean epoch seals performed by this session.
	EpochsCut int `json:"epochs_cut"`
	// CurrentEpoch is the open epoch's ID (0 when none).
	CurrentEpoch uint64 `json:"current_epoch,omitempty"`
	// LastFingerprint is the most recent run's heap fingerprint.
	LastFingerprint string `json:"last_fingerprint,omitempty"`
	// StartedUnixNS is the session start time.
	StartedUnixNS int64 `json:"started_unix_ns"`
	// Err carries the fatal error that stopped the loop, if any.
	Err string `json:"error,omitempty"`
	// PreSolved counts runs whose schedules were pre-solved in the
	// background (only moves when SessionConfig.PreSolve is on).
	PreSolved int `json:"presolved,omitempty"`
}

// Session is one running always-on recording loop over a store.
type Session struct {
	cfg     SessionConfig
	store   *Store
	prog    *compiler.Program
	mask    []bool
	maskAll []bool
	opts    light.Options
	hdr     Header

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Pre-solve pipeline state: at most one background solve at a time
	// (presolveBusy is a 1-slot semaphore), waited for on shutdown.
	presolveBusy chan struct{}
	presolveWG   sync.WaitGroup

	// Telemetry state for the epoch being recorded: nativeNS is the
	// session's uninstrumented baseline (one timed run at loop start),
	// epochSnap the obs registry snapshot taken when the epoch opened.
	nativeNS  int64
	epochSnap obs.Snapshot

	mu       sync.Mutex
	status   SessionStatus
	lastTTFR int64 // newest completed pre-solve's seal→ready latency
}

// resolveProgram compiles the session's workload or ad-hoc source and
// returns the program plus the resolved workload name and source text.
func resolveProgram(cfg SessionConfig) (*compiler.Program, string, string, error) {
	if cfg.Workload != "" {
		w := workloads.ByName(cfg.Workload)
		if w == nil {
			return nil, "", "", fmt.Errorf("epoch: unknown workload %q", cfg.Workload)
		}
		prog, err := w.Compile()
		if err != nil {
			return nil, "", "", err
		}
		return prog, w.Name, w.Source, nil
	}
	if cfg.Source == "" {
		return nil, "", "", errors.New("epoch: session needs a workload name or source")
	}
	prog, err := compiler.CompileSource(cfg.Source)
	if err != nil {
		return nil, "", "", err
	}
	return prog, "source", cfg.Source, nil
}

// StartSession compiles the workload, opens the first epoch, and starts
// the record loop in a goroutine.
func StartSession(store *Store, cfg SessionConfig) (*Session, error) {
	prog, name, source, err := resolveProgram(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.EpochRuns <= 0 {
		cfg.EpochRuns = DefaultEpochRuns
	}
	an := analysis.Analyze(prog)
	mask := an.InstrumentMask(!cfg.NoO2)
	s := &Session{
		cfg: cfg, store: store, prog: prog, mask: mask,
		maskAll: an.InstrumentMask(false),
		opts:    light.Options{O1: !cfg.NoO1},
		stop:    make(chan struct{}), done: make(chan struct{}),
		presolveBusy: make(chan struct{}, 1),
		hdr: Header{
			Workload: name, Source: source, SeedBase: cfg.SeedBase,
			O1: !cfg.NoO1, O2: !cfg.NoO2, SleepUnit: cfg.SleepUnit,
		},
	}
	s.status = SessionStatus{
		Workload: name, Running: true, StartedUnixNS: store.opts.NowNS(),
	}
	gSessionActive.Set(1)
	go s.loop()
	return s, nil
}

// loop is the record loop: one complete run per iteration, epoch cuts at
// run boundaries, retention GC after every seal (inside store.Seal).
// Epochs open lazily — right before the first run that needs one — so a
// stop landing on a cut boundary never leaves an empty epoch behind.
func (s *Session) loop() {
	defer close(s.done)
	defer gSessionActive.Set(0)
	logger := s.store.logger.With("component", "session", "workload", s.hdr.Workload)
	// One timed native run (no Hooks, full instrumentation mask — the
	// harness's baseline idiom) anchors the per-epoch record-overhead
	// factor every telemetry row reports.
	nativeStart := time.Now()
	vm.Run(vm.Config{Prog: s.prog, Seed: s.cfg.SeedBase, Instrument: s.maskAll, SleepUnit: s.cfg.SleepUnit})
	s.nativeNS = time.Since(nativeStart).Nanoseconds()
	logger.Info("session started", "seed_base", s.cfg.SeedBase,
		"epoch_runs", s.cfg.EpochRuns, "native_ns", s.nativeNS)
	var epochStart time.Time
	epochOpen := false
	runsInEpoch := 0
	var pending []*trace.Log // sealed-epoch logs awaiting background pre-solve
	fail := func(err error) {
		logger.Error("session stopped on error", "err", err)
		s.mu.Lock()
		s.status.Err = err.Error()
		s.status.Running = false
		s.mu.Unlock()
	}
	for {
		select {
		case <-s.stop:
			s.finish(epochOpen)
			return
		default:
		}
		s.mu.Lock()
		runIndex := s.status.RunsTotal
		s.mu.Unlock()
		if s.cfg.MaxRuns > 0 && runIndex >= s.cfg.MaxRuns {
			s.finish(epochOpen)
			return
		}
		if !epochOpen {
			meta, err := s.store.Begin(s.hdr)
			if err != nil {
				fail(err)
				return
			}
			s.mu.Lock()
			s.status.CurrentEpoch = meta.ID
			s.mu.Unlock()
			epochOpen = true
			epochStart = time.Now()
			runsInEpoch = 0
			// Mark the interval boundary: the cut's telemetry row reports
			// the registry movement since this point.
			s.epochSnap = obs.TakeSnapshot()
			logger.Debug("epoch opened", "epoch", meta.ID)
		}

		// A run boundary is an epoch cut point: Record's Finish closes every
		// open O1 run, so each run's log is self-contained, and the heap
		// fingerprint of its final state is what a replay must reproduce.
		seed := s.cfg.SeedBase + uint64(runIndex)
		start := time.Now()
		run := light.Record(s.prog, s.opts, light.RunConfig{
			Seed: seed, Instrument: s.mask, SleepUnit: s.cfg.SleepUnit,
		})
		meta := RunMeta{
			Seed:        seed,
			StartUnixNS: start.UnixNano(),
			WallNS:      int64(run.Elapsed),
			Fingerprint: vm.HeapFingerprint(run.Result.Globals),
			Bugs:        len(run.Result.Bugs),
			Events:      run.Log.Events(),
			SpaceLongs:  run.Log.SpaceLongs,
		}
		mRunWallNS.Observe(meta.WallNS)
		if err := s.store.AppendRun(meta, run.Log); err != nil {
			fail(err)
			return
		}
		if s.cfg.PreSolve {
			pending = append(pending, run.Log)
		}
		runsInEpoch++
		s.mu.Lock()
		s.status.RunsTotal++
		s.status.LastFingerprint = meta.Fingerprint
		s.mu.Unlock()

		cut := runsInEpoch >= s.cfg.EpochRuns
		if !cut && s.cfg.EpochInterval > 0 && time.Since(epochStart) >= s.cfg.EpochInterval {
			cut = true
		}
		if cut {
			if _, err := s.store.Seal(s.sessionTelemetry()); err != nil {
				fail(err)
				return
			}
			epochOpen = false
			s.mu.Lock()
			s.status.EpochsCut++
			s.status.CurrentEpoch = 0
			s.mu.Unlock()
			// Overlap this epoch's solve with the next epoch's recording.
			s.presolve(pending)
			pending = nil
		}
	}
}

// sessionTelemetry builds the session-scoped half of the epoch's stats
// row at cut time: the obs-registry delta since the epoch opened (cache
// traffic, divergences, pre-solves) plus the native baseline and the
// newest completed pre-solve latency. The segment fills in the rest.
func (s *Session) sessionTelemetry() *Telemetry {
	delta := obs.TakeSnapshot().Delta(s.epochSnap)
	s.mu.Lock()
	ttfr := s.lastTTFR
	s.mu.Unlock()
	return &Telemetry{
		NativeNS:    s.nativeNS,
		TTFRNS:      ttfr,
		PreSolved:   int(delta.Counter("epoch_presolves_total")),
		CacheHits:   delta.Counter("light_schedule_cache_hits_total"),
		CacheMisses: delta.Counter("light_schedule_cache_misses_total"),
		Divergences: delta.Counter("light_replay_divergence_total"),
	}
}

// presolve warms the schedule cache for a just-sealed epoch's runs in the
// background. The 1-slot semaphore guarantees a single in-flight solve; if
// the previous epoch is still solving, this one is skipped entirely — the
// record loop is never made to wait on synthesis, which is the whole point
// of the pipeline.
func (s *Session) presolve(logs []*trace.Log) {
	if len(logs) == 0 {
		return
	}
	select {
	case s.presolveBusy <- struct{}{}:
	default:
		return // previous epoch still solving; skip, don't queue
	}
	s.presolveWG.Add(1)
	sealTime := time.Now()
	go func() {
		defer func() {
			<-s.presolveBusy
			s.presolveWG.Done()
		}()
		solved := 0
		for _, log := range logs {
			if _, _, err := light.ComputeScheduleCached(log); err == nil {
				solved++
				mPreSolves.Inc()
			}
		}
		// Seal→schedules-ready is the time-to-first-replay proxy the
		// *next* cut's telemetry row reports (rows are immutable after
		// seal, so the freshest completed measurement rides forward).
		ttfr := time.Since(sealTime).Nanoseconds()
		s.mu.Lock()
		s.status.PreSolved += solved
		s.lastTTFR = ttfr
		s.mu.Unlock()
	}()
}

// finish seals the trailing partial epoch, if one is open, and marks the
// session stopped.
func (s *Session) finish(epochOpen bool) {
	if epochOpen {
		if _, err := s.store.Seal(s.sessionTelemetry()); err != nil {
			s.mu.Lock()
			s.status.Err = err.Error()
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			s.status.EpochsCut++
			s.mu.Unlock()
		}
	}
	s.presolveWG.Wait()
	s.mu.Lock()
	s.status.Running = false
	s.status.CurrentEpoch = 0
	s.mu.Unlock()
}

// Stop signals the loop to stop after the in-flight run and waits for the
// trailing epoch to seal.
func (s *Session) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Wait blocks until the loop exits on its own (MaxRuns or fatal error).
func (s *Session) Wait() { <-s.done }

// Status returns a snapshot of the session's progress.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}
