package light

import (
	"time"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/vm"
)

// This file is the recorder's epoch boundary: the primitive lightd's
// always-on recording loop (internal/epoch) is built on. An epoch cut at a
// run boundary is exactly Finish — every open O1 run is closed and merged,
// so the emitted log is self-contained — followed by a heap-fingerprint
// snapshot of the run's final state and a Reset that re-arms the recorder
// for the next run without reallocating its 64 KiB stripe-lock array.
// DESIGN.md §9 documents how cuts compose into segment files.

// Reset re-arms a finished recorder for another record run: the merged
// thread buffers are dropped and location numbering restarts at zero, so
// the next run's log is indistinguishable from one recorded on a fresh
// recorder (each vm.Run allocates fresh heap entities, so no shadow-cell
// state survives into the next run). The enable flags for metrics and the
// flight recorder are re-cached exactly as NewRecorder would. Reset must
// not be called while a run is in flight.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.merged = nil
	r.nextLoc.Store(0)
	r.obsOn = obs.Enabled()
	r.flightOn = flight.Enabled()
}

// EpochRun is one complete record run of a continuously-recorded session:
// the ordinary record artifacts plus the heap fingerprint snapshotted at
// the run boundary — the value an epoch seal stores and an on-demand
// replay must reproduce.
type EpochRun struct {
	// Outcome is the run's record artifacts (log, VM result, timing).
	Outcome *RecordOutcome
	// Fingerprint is the canonical digest of the run's final heap
	// (vm.HeapFingerprint over the VM's global roots).
	Fingerprint string
	// Start is the run's wall-clock start time.
	Start time.Time
}

// RecordEpochRun executes one run of an always-on recording session on a
// reused recorder: run the program under the recorder, cut at the run
// boundary (Finish closes all open O1 runs and merges the thread-local
// buffers), snapshot the heap fingerprint, and Reset the recorder for the
// next run. Callers own the iteration and epoch-rotation policy; see
// internal/epoch.Session.
func RecordEpochRun(rec *Recorder, prog *compiler.Program, cfg RunConfig) *EpochRun {
	span := obs.StartSpan("record")
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
	fp := vm.HeapFingerprint(res.Globals)
	rec.Reset()
	return &EpochRun{
		Outcome:     &RecordOutcome{Log: log, Result: res, Elapsed: elapsed},
		Fingerprint: fp,
		Start:       start,
	}
}
