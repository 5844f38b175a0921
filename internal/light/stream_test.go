package light

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// requireByteIdentical fails unless the streamed schedule matches the batch
// schedule byte for byte — the streaming solver's core contract.
func requireByteIdentical(t *testing.T, log *trace.Log) *Schedule {
	t.Helper()
	auto, err := ComputeScheduleJobs(log, 4)
	if err != nil {
		t.Fatalf("batch solve: %v", err)
	}
	streamed, err := ComputeScheduleStreamed(log, 4)
	if err != nil {
		t.Fatalf("streamed solve: %v", err)
	}
	if d := DiffSchedules(auto, streamed); !d.Equal() {
		t.Fatalf("streamed schedule differs from batch: %s", d)
	}
	if err := CheckSchedule(log, streamed); err != nil {
		t.Fatalf("streamed schedule rejected by checker: %v", err)
	}
	return streamed
}

// TestStreamMatchesAuto pins the acceptance criterion: streamed schedules
// are byte-identical to the batch schedule on every workload.
func TestStreamMatchesAuto(t *testing.T) {
	all := workloads.All()
	if testing.Short() {
		all = all[:6]
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rec := Record(prog, Options{O1: true}, RunConfig{Seed: 11})
			requireByteIdentical(t, rec.Log)
		})
	}
}

// TestStreamMatchesAutoResidual covers the log shapes the workloads never
// produce — residual components that actually reach CDCL(T), including
// bridged ones whose merge soundness depends on seeded bridge literals.
// The streamed forced/chosen edge sets must reproduce the batch path's
// exactly for byte identity to hold, so this is the sharpest test of the
// per-component solve.
func TestStreamMatchesAutoResidual(t *testing.T) {
	for _, c := range []struct {
		name string
		log  *trace.Log
	}{
		{"residual", residualLog()},
		{"bridged", bridgedResidualLog()},
		{"replicated", replicatedResidualLog(4)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ResetScheduleCache()
			sched := requireByteIdentical(t, c.log)
			if sched.Stats.Components == 0 {
				t.Fatal("synthetic log produced no components")
			}
		})
	}
}

// TestStreamVariantsMatch: the streamed schedule must not depend on O1 or
// basic recording mode, jobs count, or the retirement order the offline
// driver happens to feed — rerun a workload under different recorder
// options and check stream==auto each time.
func TestStreamVariantsMatch(t *testing.T) {
	w := workloads.ByName("stamp-vacation")
	if w == nil {
		t.Fatal("stamp-vacation workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{O1: true}, {}, {O1: true, DisablePrec: true}} {
		rec := Record(prog, opts, RunConfig{Seed: 3})
		requireByteIdentical(t, rec.Log)
	}
}

// TestRecordAndSolve drives the live pipelined path: threads retire into
// the stream solver during the run, and Finish only pays the epoch tail.
// The resulting schedule must equal the batch schedule of the same log,
// and the speculation counters must be consistent.
func TestRecordAndSolve(t *testing.T) {
	w := workloads.ByName("jgf-crypt")
	if w == nil {
		t.Fatal("jgf-crypt workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec, sched, st, ttfr, err := RecordAndSolve(prog, Options{O1: true}, RunConfig{Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ttfr <= 0 {
		t.Fatalf("ttfr = %v", ttfr)
	}
	auto, err := ComputeScheduleJobs(rec.Log, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffSchedules(auto, sched); !d.Equal() {
		t.Fatalf("pipelined schedule differs from batch: %s", d)
	}
	if st.Reused+st.Stragglers == 0 {
		t.Fatal("no final components accounted for")
	}
	if st.Wasted != st.SpecSolved-st.Reused {
		t.Fatalf("inconsistent speculation counters: %+v", st)
	}
	if st.FinishNS <= 0 {
		t.Fatalf("FinishNS = %d", st.FinishNS)
	}
	// The recorder must drop the one-shot stream reference on Reset.
	r := NewRecorder(Options{O1: true, Stream: NewStreamSolver(1)})
	r.Reset()
	if r.opts.Stream != nil {
		t.Fatal("Reset kept the stream solver")
	}
}

// TestStreamSpeculationModes pins byte identity under both speculation
// settings regardless of this machine's core count. With speculation on
// (the multi-core default) components are solved during the recording and
// validated by fingerprint; with it off (the single-core default) Finish
// runs the batch path on the tail. Both must produce the batch schedule,
// on a real workload and on the synthetic residual shapes.
func TestStreamSpeculationModes(t *testing.T) {
	w := workloads.ByName("jgf-crypt")
	if w == nil {
		t.Fatal("jgf-crypt workload missing")
	}
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rec := Record(prog, Options{O1: true}, RunConfig{Seed: 11})

	old := streamSpeculate
	defer func() { streamSpeculate = old }()
	for _, spec := range []bool{true, false} {
		streamSpeculate = spec
		requireByteIdentical(t, rec.Log)
		requireByteIdentical(t, residualLog())
		requireByteIdentical(t, bridgedResidualLog())
		requireByteIdentical(t, replicatedResidualLog(4))
	}
}

// TestStreamAbandonedSpeculation: once Finish cancels speculation, a
// speculative CDCL(T) search gives up and stores nothing, and Finish's merge
// solves the component itself — the schedule is still the batch one. The
// test stops the worker and drives one speculative round itself, so the
// abandoned path runs on every execution.
func TestStreamAbandonedSpeculation(t *testing.T) {
	old := streamSpeculate
	streamSpeculate = true
	defer func() { streamSpeculate = old }()
	for _, log := range []*trace.Log{residualLog(), bridgedResidualLog(), replicatedResidualLog(4)} {
		ResetScheduleCache()
		s := NewStreamSolver(1)
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.done
		s.cancelSpec()
		s.absorb(retirements(log), false)
		if len(s.solved) != 0 || s.stats.SpecSolved != 0 {
			t.Fatalf("abandoned speculation stored %d solutions (%d counted)", len(s.solved), s.stats.SpecSolved)
		}
		sched, err := s.merge(log, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if s.stats.Stragglers == 0 {
			t.Fatal("merge solved no straggler")
		}
		batch, err := ComputeScheduleJobs(log, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffSchedules(batch, sched); !d.Equal() {
			t.Fatalf("schedule after abandoned speculation differs from batch: %s", d)
		}
	}
}
