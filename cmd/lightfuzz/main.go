// Command lightfuzz runs randomized differential validation of the Light
// record/replay pipeline: it generates concurrent MiniJ programs biased
// toward recorder-hostile patterns, records and replays each one under
// rotating recorder variants, and checks three independent oracles
// (replay reproduction + final heap state, LEAP/Stride cross-recording,
// the solved schedule checker-validated). Failures are minimized by a
// delta-debugging shrinker and written as reproducible corpus files.
//
// Usage:
//
//	lightfuzz [-seeds N] [-duration D] [-corpus DIR] [-jobs N]
//	lightfuzz -corpus DIR -regress      re-run every stored case
//	lightfuzz -shrink FILE              minimize one stored failure
//	lightfuzz -artifacts DIR            also write per-failure debug bundles
//	                                    (shrunk reproducer + forensics JSON +
//	                                    Perfetto schedule trace)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/fuzz"
)

func main() {
	var (
		seeds      = flag.Int("seeds", 200, "number of generator seeds to try")
		start      = flag.Uint64("start", 0, "first generator seed")
		schedSeeds = flag.Int("schedseeds", 2, "schedule seeds per program")
		jobs       = flag.Int("jobs", 4, "concurrent oracle workers")
		duration   = flag.Duration("duration", 0, "wall-clock budget (0 = run all seeds)")
		corpus     = flag.String("corpus", "", "directory for failure corpus files (.lfz)")
		artifacts  = flag.String("artifacts", "", "directory for per-failure debug bundles (shrunk .lfz + forensics + Perfetto trace)")
		regress    = flag.Bool("regress", false, "re-run every case already stored in -corpus instead of fuzzing")
		shrink     = flag.String("shrink", "", "minimize the failing case in this .lfz file and print the reproducer")
		perturb    = flag.Int("perturb", 0, "schedule-perturbation intensity for record runs (0 = off, 1-100)")
		verbose    = flag.Bool("v", false, "log every oracle failure as it happens")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lightfuzz [flags]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *shrink != "":
		os.Exit(runShrink(*shrink))
	case *regress:
		if *corpus == "" {
			fmt.Fprintln(os.Stderr, "lightfuzz: -regress requires -corpus")
			os.Exit(2)
		}
		os.Exit(runRegress(*corpus))
	}

	cfg := fuzz.Config{
		Seeds:        *seeds,
		StartSeed:    *start,
		SchedSeeds:   *schedSeeds,
		Jobs:         *jobs,
		Duration:     *duration,
		CorpusDir:    *corpus,
		ArtifactsDir: *artifacts,
		Perturb:      *perturb,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	rep := fuzz.RunCampaign(cfg)
	fmt.Println(rep.Summary())
	for _, f := range rep.Failures {
		fmt.Printf("  FAIL genseed=%d schedseed=%d: %s\n", f.GenSeed, f.SchedSeed, firstLine(f.Err))
	}
	if len(rep.Failures) > 0 {
		os.Exit(1)
	}
}

// runRegress replays every stored corpus case through the oracle stack.
func runRegress(dir string) int {
	cases, err := fuzz.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightfuzz: %v\n", err)
		return 1
	}
	if len(cases) == 0 {
		fmt.Printf("corpus %s: no cases\n", dir)
		return 0
	}
	failed := 0
	start := time.Now()
	for _, c := range cases {
		if _, err := fuzz.Reproduce(c, nil); err != nil {
			failed++
			fmt.Printf("  FAIL genseed=%d schedseed=%d: %s\n", c.GenSeed, c.SchedSeed, firstLine(err.Error()))
		}
	}
	fmt.Printf("corpus %s: %d cases, %d failing in %s\n", dir, len(cases), failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return 1
	}
	return 0
}

// runShrink minimizes one stored failing case and prints the reproducer.
// The stored failure must reproduce without fault injection; cases written
// by the injected-fault self-test cannot be re-shrunk here.
func runShrink(path string) int {
	c, err := fuzz.ReadCase(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightfuzz: %v\n", err)
		return 1
	}
	fails := func(tr []uint32) bool {
		_, err := fuzz.Reproduce(&fuzz.Case{GenSeed: c.GenSeed, SchedSeed: c.SchedSeed, Trace: tr}, nil)
		return err != nil
	}
	if !fails(c.Trace) {
		fmt.Fprintf(os.Stderr, "lightfuzz: case %s does not currently fail; nothing to shrink\n", path)
		return 1
	}
	p := fuzz.Shrink(c.GenSeed, c.Trace, fails, 0)
	n, _ := fuzz.CountStatements(p.Source)
	fmt.Printf("minimized to %d statements (%d decisions):\n\n%s", n, len(p.Trace), p.Source)
	min := &fuzz.Case{GenSeed: c.GenSeed, SchedSeed: c.SchedSeed, Trace: p.Trace, Err: c.Err, Source: p.Source}
	out := path + ".min"
	if err := os.WriteFile(out, []byte(min.Format()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "lightfuzz: %v\n", err)
		return 1
	}
	fmt.Printf("\nwritten to %s\n", out)
	return 0
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
