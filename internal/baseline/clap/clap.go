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

	Result     *vm.Result
	SolveTime  time.Duration
	ReplayTime time.Duration
	Deps       int
}

// DefaultBudget bounds the matching search's node count.
const DefaultBudget = 200_000

// DefaultDeadline bounds the matching search's wall-clock time.
const DefaultDeadline = 20 * time.Second

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
	m.deadline = time.Now().Add(DefaultDeadline)
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

	rep := light.NewReplayer(sched)
	replayStart := time.Now()
	res := vm.Run(vm.Config{
		Prog: prog, Hooks: rep, Seed: log.Seed,
		Instrument: instrument, ReplayMode: true, IgnoreSleep: true,
	})
	out.ReplayTime = time.Since(replayStart)
	out.Result = res
	if diverged, reason := rep.Failed(); diverged {
		out.Err = fmt.Errorf("clap: replay diverged: %s", reason)
		return out
	}
	out.Reproduced = bugsReproduced(log, res)
	return out
}

// bugsReproduced checks the Definition 3.3 correlation for the record run's
// bug set against the replay result.
func bugsReproduced(log *Log, res *vm.Result) bool {
	if len(log.Bugs) == 0 {
		return len(res.Bugs) == 0
	}
	for _, want := range log.Bugs {
		found := false
		for _, got := range res.Bugs {
			if int32(got.Kind) == want.Kind && got.ThreadPath == want.ThreadPath &&
				int32(got.FuncID) == want.FuncID && int32(got.PC) == want.PC &&
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
