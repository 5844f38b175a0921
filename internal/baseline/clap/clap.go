package clap

import (
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/vm"
)

// Outcome is the result of a CLAP reproduction attempt.
type Outcome struct {
	// Reproduced reports whether the replay reproduced the recorded bugs.
	Reproduced bool
	// Unsupported is non-nil when the program fell outside the symbolic
	// encoding (the paper's 5-of-8 failure mode); Err covers search
	// exhaustion and divergence.
	Unsupported *ErrUnsupported
	Err         error

	Result    *vm.Result
	SolveTime time.Duration
	// ReplayTime includes the replayer's gate-table build, as Light's
	// ReplayOutcome.ReplayTime does.
	ReplayTime time.Duration
	Deps       int
}

// DefaultBudget bounds the matching search's work, counted in search nodes
// and happens-before queries. It is the search's only bound: a count, so the
// verdict does not depend on the host's speed.
const DefaultBudget = 200_000

// Reproduce runs CLAP's offline stage on a recording: symbolic re-execution
// along the recorded paths, read/write matching, schedule synthesis via the
// shared IDL machinery, and an enforced replay. The instrument mask must
// match the record run's.
func Reproduce(prog *compiler.Program, log *Log, instrument []bool) *Outcome {
	out := &Outcome{}
	solveStart := time.Now()

	tr, err := runSymbolic(prog, log, instrument)
	if err != nil {
		out.SolveTime = time.Since(solveStart)
		if ue, ok := err.(*ErrUnsupported); ok {
			out.Unsupported = ue
		} else {
			out.Err = err
		}
		return out
	}

	m := newMatcher(tr, DefaultBudget)
	m.validate = func(deps []matchedDep) bool {
		_, err := light.ComputeSchedule(syntheticDeps(log, deps))
		return err == nil
	}
	matches, err := m.solve()
	if err != nil {
		out.SolveTime = time.Since(solveStart)
		if ue, ok := err.(*ErrUnsupported); ok {
			out.Unsupported = ue
		} else {
			out.Err = err
		}
		return out
	}
	out.Deps = len(matches)

	synth := syntheticDeps(log, matches)
	sched, err := light.ComputeSchedule(synth)
	if err != nil {
		out.SolveTime = time.Since(solveStart)
		out.Err = fmt.Errorf("clap: matched dependences admit no feasible schedule: %w", err)
		return out
	}
	out.SolveTime = time.Since(solveStart)

	rep, err := light.ReplayScheduled(prog, synth, light.RunConfig{Instrument: instrument}, sched, out.SolveTime)
	if err != nil {
		out.Err = err
		return out
	}
	out.Result, out.ReplayTime = rep.Result, rep.ReplayTime
	if rep.Diverged {
		out.Err = fmt.Errorf("clap: replay diverged: %s", rep.Reason)
		return out
	}
	out.Reproduced = light.Reproduced(synth, rep.Result)
	return out
}
