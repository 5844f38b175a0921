package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/vm"
)

// RunVerdict is the verification result for one replayed run of an epoch.
type RunVerdict struct {
	// Index and Seed identify the run within its epoch.
	Index int    `json:"index"`
	Seed  uint64 `json:"seed"`
	// Reproduced reports the paper's Definition 3.3 bug-correlation
	// check between the recorded and replayed runs.
	Reproduced bool `json:"reproduced"`
	// FingerprintOK reports that the replay's final heap fingerprint
	// matches the one recorded at the run boundary.
	FingerprintOK bool `json:"fingerprint_ok"`
	// Diverged reports a replay divergence; Reason carries its text.
	Diverged bool   `json:"diverged"`
	Reason   string `json:"reason,omitempty"`
	// SolveMS and ReplayMS are the offline schedule-computation and
	// enforced re-execution times.
	SolveMS  float64 `json:"solve_ms"`
	ReplayMS float64 `json:"replay_ms"`
	// Recorded and Replayed are the two heap fingerprints compared.
	Recorded string `json:"recorded_fingerprint"`
	Replayed string `json:"replayed_fingerprint"`
}

// Verdict is the result of replaying an epoch on demand.
type Verdict struct {
	// EpochID and Workload identify what was replayed.
	EpochID  uint64 `json:"epoch_id"`
	Workload string `json:"workload"`
	// Runs holds one verdict per replayed run.
	Runs []RunVerdict `json:"runs"`
	// Pass reports that every replayed run reproduced its recording:
	// no divergence, bugs correlated, fingerprints equal.
	Pass bool `json:"pass"`
}

// replayEnv rebuilds the execution environment a segment header pins
// down: the compiled program and the instrumentation mask, recomputed
// deterministically from the embedded source and reduction flags.
func replayEnv(hdr Header) (*compiler.Program, []bool, error) {
	if hdr.Source == "" {
		return nil, nil, fmt.Errorf("%w: segment header has no source", ErrBadRecord)
	}
	prog, err := compiler.CompileSource(hdr.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("epoch: recompiling %s: %w", hdr.Workload, err)
	}
	mask := analysis.Analyze(prog).InstrumentMask(hdr.O2)
	return prog, mask, nil
}

// ReplayEpoch replays a sealed epoch's runs and verifies each against its
// recording. runIndex selects a single run, or -1 for every run in the
// epoch. A damaged log turns into a diverged verdict as soon as its replay
// stalls (the replayer's exact stall condition), so a request never hangs on
// one. The runs are verified concurrently (replayRuns); Verdict.Runs keeps
// their order.
func ReplayEpoch(data *SegmentData, runIndex int) (*Verdict, error) {
	prog, mask, err := replayEnv(data.Header)
	if err != nil {
		return nil, err
	}
	runs := data.Runs
	if runIndex >= 0 {
		rr, err := runByIndex(data, runIndex)
		if err != nil {
			return nil, err
		}
		runs = []RunRecord{rr}
	}
	// An epoch sealed with zero runs (a cut raced the stop) verifies
	// vacuously; report it as such rather than erroring.
	verdicts, err := replayRuns(prog, light.RunConfig{Instrument: mask}, runs)
	if err != nil {
		return nil, err
	}
	v := &Verdict{EpochID: data.Header.EpochID, Workload: data.Header.Workload, Runs: verdicts, Pass: true}
	for _, rv := range verdicts {
		if !(rv.Reproduced && rv.FingerprintOK && !rv.Diverged) {
			v.Pass = false
		}
	}
	mReplayRequests.Inc()
	if !v.Pass {
		mReplayFailures.Inc()
	}
	return v, nil
}

// replayRuns verifies runs on up to min(GOMAXPROCS, len(runs)) goroutines,
// each taking whole runs in index order, and returns their verdicts in that
// order. A run's replay depends only on its log and the program: each run
// has its own VM, replayer, gate table and flight rings, a stall verdict
// reads no clock, and the schedule cache is locked, so sharing the cores
// cannot change a verdict. Once a run fails no further run starts, and the
// error returned is the lowest-index failure's, as a serial loop would
// return: every run below a failing one was taken before it. Every started
// run finishes before replayRuns returns.
func replayRuns(prog *compiler.Program, cfg light.RunConfig, runs []RunRecord) ([]RunVerdict, error) {
	verdicts := make([]RunVerdict, len(runs))
	errs := make([]error, len(runs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(runs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(runs) {
					return
				}
				verdicts[i], _, errs[i] = replayRun(prog, cfg, runs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return verdicts, nil
}

// ReplayRunForensics replays one run of an epoch with per-thread flight
// rings of flightCap events (0 = none) and returns the full replay outcome,
// including the forensic report when the replay diverged (nil otherwise).
// This backs lightd's /forensics endpoint.
func ReplayRunForensics(data *SegmentData, runIndex, flightCap int) (RunVerdict, *light.ReplayOutcome, error) {
	prog, mask, err := replayEnv(data.Header)
	if err != nil {
		return RunVerdict{}, nil, err
	}
	rr, err := runByIndex(data, runIndex)
	if err != nil {
		return RunVerdict{}, nil, err
	}
	return replayRun(prog, light.RunConfig{Instrument: mask, FlightCapacity: flightCap}, rr)
}

// runByIndex returns the epoch's run with the given index.
func runByIndex(data *SegmentData, runIndex int) (RunRecord, error) {
	for _, rr := range data.Runs {
		if rr.Meta.Index == runIndex {
			return rr, nil
		}
	}
	return RunRecord{}, fmt.Errorf("%w: epoch %d has no run %d", ErrNoEpoch, data.Header.EpochID, runIndex)
}

// replayRun solves and re-executes one recorded run under cfg, then
// verifies it; ReplayEpoch may run several at once. The schedule goes
// through the whole-schedule cache: replaying the same epoch twice (or
// replaying an epoch the session pre-solved in the background) skips
// synthesis, but a hit still hashes the log and revalidates the cached
// order with the checker, so it saves little over a cold solve and a
// damaged cache can only cost time. The verdict's SolveMS and ReplayMS are
// wall times, taken while any other runs of the call share the cores.
func replayRun(prog *compiler.Program, cfg light.RunConfig, rr RunRecord) (RunVerdict, *light.ReplayOutcome, error) {
	solveStart := time.Now()
	sched, hit, err := light.ComputeScheduleCached(rr.Log)
	if err != nil {
		return RunVerdict{}, nil, fmt.Errorf("epoch: solving run %d: %w", rr.Meta.Index, err)
	}
	if hit {
		mReplayCacheHits.Inc()
	}
	out, err := light.ReplayScheduled(prog, rr.Log, cfg, sched, time.Since(solveStart))
	if err != nil {
		return RunVerdict{}, nil, fmt.Errorf("epoch: replaying run %d: %w", rr.Meta.Index, err)
	}
	replayed := vm.HeapFingerprint(out.Result.Globals)
	rv := RunVerdict{
		Index: rr.Meta.Index, Seed: rr.Meta.Seed,
		Reproduced:    light.Reproduced(rr.Log, out.Result),
		FingerprintOK: replayed == rr.Meta.Fingerprint,
		Diverged:      out.Diverged, Reason: out.Reason,
		SolveMS:  float64(out.SolveTime) / float64(time.Millisecond),
		ReplayMS: float64(out.ReplayTime) / float64(time.Millisecond),
		Recorded: rr.Meta.Fingerprint, Replayed: replayed,
	}
	return rv, out, nil
}
