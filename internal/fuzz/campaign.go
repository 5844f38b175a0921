package fuzz

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Config drives one fuzzing campaign.
type Config struct {
	// Seeds is the number of generator seeds to try, starting at StartSeed.
	Seeds     int
	StartSeed uint64
	// SchedSeeds is how many schedule seeds each program is checked under
	// (default 2); each run also rotates the recorder variant and O2 mask.
	SchedSeeds int
	// Jobs is the number of concurrent oracle workers (default 4).
	Jobs int
	// Duration, when positive, stops the campaign after the wall-clock
	// budget even if seeds remain.
	Duration time.Duration
	// CorpusDir, when set, receives one .lfz file per failure.
	CorpusDir string
	// ArtifactsDir, when set, receives a per-failure debugging bundle
	// (shrunk reproducer, forensics JSON, Perfetto schedule export),
	// written after the workers drain.
	ArtifactsDir string
	// Perturb, when positive, records every run under schedule
	// perturbation at this intensity (lightfuzz -perturb): the campaign
	// then exercises the oracle contracts on noise-biased interleavings.
	Perturb int
	// Fault is the test-only recorder fault injection (see
	// light.Options.FaultDropDep); the oracles must catch it.
	Fault func(trace.Dep) bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Report summarizes a campaign.
type Report struct {
	Programs int
	Runs     int
	Failures []*Case
	Elapsed  time.Duration
}

// optionsFor derives the oracle configuration for one (genSeed, schedSeed)
// pair deterministically, rotating through the recorder variants so the
// campaign covers basic/O1 recording with and without the O2 mask. The
// serialized cross-check runs on the first schedule seed of each program.
func optionsFor(genSeed, schedSeed uint64, fault func(trace.Dep) bool, perturb int) CheckOptions {
	mix := genSeed*31 + schedSeed
	o := CheckOptions{
		ScheduleSeed: schedSeed*7919 + genSeed,
		UseO2:        mix%2 == 0,
		SkipCross:    schedSeed != 0,
		Perturb:      perturb,
	}
	o.LightOpts.O1 = mix%3 != 2
	o.LightOpts.FaultDropDep = fault
	return o
}

// Reproduce regenerates a case's program and re-runs the full oracle stack
// on it, returning the source actually checked and the oracle verdict.
func Reproduce(c *Case, fault func(trace.Dep) bool) (string, error) {
	tr := c.Trace
	if tr == nil {
		tr = []uint32{}
	}
	p := Generate(c.GenSeed, tr)
	o := optionsFor(c.GenSeed, c.SchedSeed, fault, c.Perturb)
	return p.Source, Check(p.Source, o)
}

// RunCampaign generates Seeds programs and checks each under SchedSeeds
// schedule seeds, in parallel, collecting every oracle divergence.
func RunCampaign(cfg Config) *Report {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 100
	}
	if cfg.SchedSeeds <= 0 {
		cfg.SchedSeeds = 2
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 4
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	var (
		mu     sync.Mutex
		report = &Report{}
	)
	seedCh := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for genSeed := range seedCh {
				p := Generate(genSeed, nil)
				mu.Lock()
				report.Programs++
				mu.Unlock()
				for ss := uint64(0); ss < uint64(cfg.SchedSeeds); ss++ {
					o := optionsFor(genSeed, ss, cfg.Fault, cfg.Perturb)
					err := Check(p.Source, o)
					mu.Lock()
					report.Runs++
					mu.Unlock()
					if err == nil {
						continue
					}
					c := &Case{
						GenSeed:   genSeed,
						SchedSeed: ss,
						Perturb:   cfg.Perturb,
						Trace:     p.Trace,
						Err:       err.Error(),
						Source:    p.Source,
					}
					mu.Lock()
					report.Failures = append(report.Failures, c)
					mu.Unlock()
					logf("FAIL genseed=%d schedseed=%d: %v", genSeed, ss, err)
					if cfg.CorpusDir != "" {
						if path, werr := WriteCase(cfg.CorpusDir, c); werr != nil {
							logf("corpus write failed: %v", werr)
						} else {
							logf("failure written to %s", path)
						}
					}
				}
			}
		}()
	}

	submitted := 0
	for i := 0; i < cfg.Seeds; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			logf("duration budget reached after %d/%d seeds", submitted, cfg.Seeds)
			break
		}
		seedCh <- cfg.StartSeed + uint64(i)
		submitted++
	}
	close(seedCh)
	wg.Wait()

	sort.Slice(report.Failures, func(i, j int) bool {
		if report.Failures[i].GenSeed != report.Failures[j].GenSeed {
			return report.Failures[i].GenSeed < report.Failures[j].GenSeed
		}
		return report.Failures[i].SchedSeed < report.Failures[j].SchedSeed
	})
	if cfg.ArtifactsDir != "" {
		for _, c := range report.Failures {
			path, err := WriteArtifacts(cfg.ArtifactsDir, c, cfg.Fault)
			if err != nil {
				logf("artifacts for genseed=%d schedseed=%d failed: %v", c.GenSeed, c.SchedSeed, err)
			} else {
				logf("artifacts written to %s", path)
			}
		}
	}
	report.Elapsed = time.Since(start)
	return report
}

// Summary renders a one-line campaign result.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d programs, %d oracle runs, %d failures in %s",
		r.Programs, r.Runs, len(r.Failures), r.Elapsed.Round(time.Millisecond))
}
