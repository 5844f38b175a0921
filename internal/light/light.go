package light

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
	"repro/internal/vm"
)

// RunConfig carries the execution parameters shared by the record and
// replay runs of one program.
type RunConfig struct {
	Seed uint64
	// Instrument is the shared-site mask (O2 output); nil instruments all.
	Instrument []bool
	// MaxStepsPerThread bounds runaway executions (0 = VM default).
	MaxStepsPerThread uint64
	// SleepUnit scales the sleep builtin in the record run.
	SleepUnit int64
	// Perturb enables schedule perturbation in the record run (the flake
	// hunter's interleaving bias, see vm.PerturbOptions). Replay runs never
	// perturb: the enforced schedule replaces timing.
	Perturb *vm.PerturbOptions
	// FlightCapacity is the per-thread flight-ring capacity of the run
	// (0 = no flight recording). The rings belong to the run: its outcome
	// hands back their snapshots.
	FlightCapacity int
}

// RecordOutcome bundles the artifacts of a record run.
type RecordOutcome struct {
	Log     *trace.Log
	Result  *vm.Result
	Elapsed time.Duration
	// Flight holds the run's flight rings, one per thread in start order
	// (nil when RunConfig.FlightCapacity is 0).
	Flight []flight.RingSnap
}

// Record executes the program under the Light recorder and returns the log.
func Record(prog *compiler.Program, opts Options, cfg RunConfig) *RecordOutcome {
	span := obs.StartSpan("record")
	rec := NewRecorder(opts)
	rec.rings.capacity = cfg.FlightCapacity
	start := time.Now()
	res := vm.Run(vm.Config{
		Prog:              prog,
		Hooks:             rec,
		Seed:              cfg.Seed,
		Instrument:        cfg.Instrument,
		MaxStepsPerThread: cfg.MaxStepsPerThread,
		SleepUnit:         cfg.SleepUnit,
		Perturb:           cfg.Perturb,
	})
	elapsed := time.Since(start)
	log := rec.Finish(res, cfg.Seed)
	span.SetItems(int64(log.Events()))
	span.SetBytes(log.SpaceLongs * 8)
	span.End()
	return &RecordOutcome{Log: log, Result: res, Elapsed: elapsed, Flight: rec.rings.snapshot()}
}

// ReplayOutcome bundles the artifacts of a replay run.
type ReplayOutcome struct {
	Result   *vm.Result
	Schedule *Schedule
	// SolveTime is the offline schedule computation time (Table 1's
	// "Solve" column); ReplayTime is the enforced re-execution time,
	// including the replayer's set-up.
	SolveTime  time.Duration
	ReplayTime time.Duration
	// Diverged is set when the replay left the recorded behavior or could
	// not finish its schedule (DivStall), which Theorem 1 guarantees not to
	// happen for well-formed logs.
	Diverged bool
	Reason   string
	// Divergence is the typed first-divergence record (nil when faithful),
	// and Forensics the structured post-mortem assembled from the schedule
	// window, flight events, and constraint system around it.
	Divergence *DivergenceError
	Forensics  *ForensicReport
	// Flight holds the replay's flight rings, one per thread in start order
	// (nil when RunConfig.FlightCapacity is 0).
	Flight []flight.RingSnap
}

// Replay computes a schedule for the log and re-executes the program under
// it. cfg.Instrument must be the same mask used during recording.
func Replay(prog *compiler.Program, log *trace.Log, cfg RunConfig) (*ReplayOutcome, error) {
	solveStart := time.Now()
	sched, err := ComputeSchedule(log)
	if err != nil {
		return nil, err
	}
	return ReplayScheduled(prog, log, cfg, sched, time.Since(solveStart))
}

// ReplayScheduled re-executes the program under an already-computed
// schedule — the entry point for callers that obtained the schedule
// elsewhere, such as the in-memory whole-schedule cache
// (ComputeScheduleCached, epoch replay).
// solveTime is whatever the caller spent obtaining the schedule (zero for
// a cache hit) and is passed through to the outcome.
func ReplayScheduled(prog *compiler.Program, log *trace.Log, cfg RunConfig, sched *Schedule, solveTime time.Duration) (*ReplayOutcome, error) {
	// The span and ReplayTime include NewReplayer: the first replay of a
	// schedule builds its gate table there.
	span := obs.StartSpan("replay")
	span.SetItems(int64(len(sched.Order)))
	replayStart := time.Now()
	rep := NewReplayer(sched)
	rep.rings.capacity = cfg.FlightCapacity
	res := vm.Run(vm.Config{
		Prog:              prog,
		Hooks:             rep,
		Seed:              log.Seed,
		Instrument:        cfg.Instrument,
		MaxStepsPerThread: cfg.MaxStepsPerThread,
		ReplayMode:        true,
	})
	replayTime := time.Since(replayStart)
	span.End()
	diverged, reason := rep.Failed()
	out := &ReplayOutcome{
		Result:     res,
		Schedule:   sched,
		SolveTime:  solveTime,
		ReplayTime: replayTime,
		Diverged:   diverged,
		Reason:     reason,
		Flight:     rep.rings.snapshot(),
	}
	if div := rep.Divergence(); div != nil {
		out.Divergence = div
		out.Forensics = BuildForensics(sched, div, out.Flight)
	}
	return out, nil
}

// Reproduced checks the paper's bug-reproduction criterion (Definition 3.3
// correlation): every bug of the record run appears in the replay run in the
// same thread, at the same statement, with the same kind and illegal value.
func Reproduced(log *trace.Log, replay *vm.Result) bool {
	if len(log.Bugs) == 0 {
		return len(replay.Bugs) == 0
	}
	for _, want := range log.Bugs {
		found := false
		for _, got := range replay.Bugs {
			if int32(got.Kind) == want.Kind &&
				got.ThreadPath == want.ThreadPath &&
				int32(got.FuncID) == want.FuncID &&
				int32(got.PC) == want.PC &&
				got.Value == want.Value {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// StreamStats splits RecordAndSolve's schedule synthesis into the part
// overlapped with recording and the part after it. Synthesis runs entirely
// after the recording, so SpecSolved, Reused and Wasted are always zero,
// Stragglers counts every component and FinishNS is the whole solve.
type StreamStats struct {
	// SpecSolved counts components solved while the recording ran; Reused
	// and Wasted count those whose solution was, or was not, kept.
	SpecSolved int
	Reused     int
	Wasted     int
	// Stragglers counts the components solved after the recording ended.
	Stragglers int
	// FinishNS is the wall time from the end of the recording until the
	// schedule was ready.
	FinishNS int64
}

// RecordAndSolve records the program and solves its schedule
// (ComputeSchedule). Returns the record artifacts, the schedule, the
// synthesis split (StreamStats), and the time-to-first-replay: the wall
// time from record start until the schedule was ready. jobs is ignored:
// tier 2 solves its residual components serially, and the parameter stays
// for the callers that pass it.
func RecordAndSolve(prog *compiler.Program, opts Options, cfg RunConfig, jobs int) (*RecordOutcome, *Schedule, StreamStats, time.Duration, error) {
	start := time.Now()
	rec := Record(prog, opts, cfg)
	solveStart := time.Now()
	sched, err := ComputeSchedule(rec.Log)
	st := StreamStats{FinishNS: time.Since(solveStart).Nanoseconds()}
	ttfr := time.Since(start)
	if err != nil {
		return rec, nil, st, ttfr, err
	}
	st.Stragglers = sched.Stats.Components
	return rec, sched, st, ttfr, nil
}

// RecordAndReplay is the end-to-end convenience used by tests and examples:
// record once, replay, and verify reproduction.
func RecordAndReplay(prog *compiler.Program, opts Options, cfg RunConfig) (*RecordOutcome, *ReplayOutcome, error) {
	rec := Record(prog, opts, cfg)
	rep, err := Replay(prog, rec.Log, cfg)
	if err != nil {
		return rec, nil, err
	}
	if rep.Diverged {
		return rec, rep, fmt.Errorf("light: replay diverged: %s", rep.Reason)
	}
	return rec, rep, nil
}
