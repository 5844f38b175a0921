package fuzz

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// shrinkBudgetArtifacts bounds the per-case shrink effort when persisting
// artifacts: enough to collapse typical generated programs, small enough
// that a campaign with many failures still finishes.
const shrinkBudgetArtifacts = 150

// WriteArtifacts persists one failing case's debugging bundle under
// dir/case-<genseed>-<schedseed>/:
//
//	repro.lfz       — the delta-debugged (shrunk) reproducer
//	forensics.json  — the replay's forensic report, when the failure is a
//	                  divergence (recorded with the flight recorder on, so
//	                  the report carries per-thread event history)
//	trace.json      — the recorded log's schedule as Chrome trace JSON
//
// Campaigns call it after their workers have drained. The returned path is
// the case directory.
func WriteArtifacts(dir string, c *Case, fault func(trace.Dep) bool) (string, error) {
	caseDir := filepath.Join(dir, fmt.Sprintf("case-%d-%d", c.GenSeed, c.SchedSeed))
	if err := os.MkdirAll(caseDir, 0o755); err != nil {
		return "", err
	}

	// Shrink, when the failure still reproduces; a flaky case keeps its
	// original trace.
	min := c
	fails := func(tr []uint32) bool {
		_, err := Reproduce(&Case{GenSeed: c.GenSeed, SchedSeed: c.SchedSeed, Trace: tr}, fault)
		return err != nil
	}
	if fails(c.Trace) {
		p := Shrink(c.GenSeed, c.Trace, fails, shrinkBudgetArtifacts)
		min = &Case{GenSeed: c.GenSeed, SchedSeed: c.SchedSeed, Trace: p.Trace, Err: c.Err, Source: p.Source}
	}
	if err := os.WriteFile(filepath.Join(caseDir, "repro.lfz"), []byte(min.Format()), 0o644); err != nil {
		return caseDir, err
	}

	// Re-run the minimized case once, replay it with flight recording on,
	// and export what the replay saw.
	prog, err := compiler.CompileSource(min.Source)
	if err != nil {
		return caseDir, fmt.Errorf("minimized source does not compile: %w", err)
	}
	o := optionsFor(c.GenSeed, c.SchedSeed, fault, c.Perturb)
	an := analysis.Analyze(prog)
	cfg := light.RunConfig{
		Seed:              o.ScheduleSeed,
		Instrument:        an.InstrumentMask(o.UseO2),
		SleepUnit:         500,
		MaxStepsPerThread: 2_000_000,
	}
	rec := light.Record(prog, o.LightOpts, cfg)
	cfg.FlightCapacity = flight.DefaultCapacity
	rep, err := light.Replay(prog, rec.Log, cfg)
	if err != nil {
		// The schedule itself failed to solve; the reproducer is the artifact.
		return caseDir, nil
	}

	tf, err := os.Create(filepath.Join(caseDir, "trace.json"))
	if err != nil {
		return caseDir, err
	}
	if err := light.ExportScheduleChrome(tf, rep.Schedule); err != nil {
		tf.Close()
		return caseDir, err
	}
	if err := tf.Close(); err != nil {
		return caseDir, err
	}

	if rep.Forensics != nil {
		ff, err := os.Create(filepath.Join(caseDir, "forensics.json"))
		if err != nil {
			return caseDir, err
		}
		if err := rep.Forensics.WriteJSON(ff); err != nil {
			ff.Close()
			return caseDir, err
		}
		if err := ff.Close(); err != nil {
			return caseDir, err
		}
	}
	return caseDir, nil
}
