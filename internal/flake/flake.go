// Package flake is the flake-hunter campaign driver: it runs a workload
// thousands of times under seeded schedule perturbation with the Light
// recorder on, discards passing runs, dedups the failures by forensic
// signature, delta-debugs each distinct failure's perturbation decision
// trace down to a minimal reproducer, and emits a ranked report plus
// per-cluster artifact bundles (program, log, forensics, flight trace).
//
// The workflow mirrors Mozilla's intermittent-test-failure pipeline built on
// rr: record every run because the failure cannot be provoked on demand,
// keep only the failing recordings, and hand the developer a deterministic
// replay instead of a probabilistic shell loop. Light's tightly bounded logs
// make the "record every run" half cheap enough to leave on for entire
// campaigns.
package flake

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Campaign execution bounds. The step limit matches the fuzz harness; the
// sleep unit keeps sleep-using workloads fast without distorting the
// perturbation sleeps (which bypass the sleep builtin entirely).
const (
	maxStepsPerThread = 2_000_000
	sleepUnit         = 500
	// shrinkAttempts is how many record runs one shrink candidate gets to
	// re-fire the failure before the candidate is rejected: scripted noise
	// biases the interleaving, the OS still owns the final ordering.
	shrinkAttempts = 2
	// reproAttempts bounds the post-shrink verification loop that re-records
	// the minimal script until the failure fires again.
	reproAttempts = 10
)

// Config parameterizes one Hunt campaign over a single workload.
type Config struct {
	// Workload is the program under test.
	Workload *workloads.Workload
	// Runs is the number of perturbed record runs (default 1000).
	Runs int
	// StartSeed seeds the first run; run i uses StartSeed+i.
	StartSeed uint64
	// Intensity is the perturbation intensity 0-100 (default 30).
	Intensity int
	// Jobs is the number of concurrent campaign workers (default 4).
	Jobs int
	// ShrinkBudget bounds the per-cluster delta-debugging candidate
	// evaluations (default 64); each evaluation is up to shrinkAttempts
	// record runs.
	ShrinkBudget int
	// Opts selects the recorder variant for the always-on recording.
	Opts light.Options
	// ArtifactsDir, when non-empty, receives one bundle directory per
	// cluster (prog.mj, repro.lightlog, repro.json, trace.json, flight.json,
	// forensics.json on divergence).
	ArtifactsDir string
	// Logf, when non-nil, receives campaign progress lines.
	Logf func(format string, args ...any)
}

// hunter is the per-campaign state shared by the workers.
type hunter struct {
	cfg  Config
	prog *compiler.Program
	mask []bool
}

// runOutcome bundles one record run's artifacts.
type runOutcome struct {
	seed      uint64
	res       *vm.Result
	log       *trace.Log
	tap       *siteTap
	decisions []Decision // captured non-none decisions (nil unless captured)
}

// cluster accumulates one signature's failures during the campaign.
type cluster struct {
	sig Signature
	key string

	count               int
	firstSeed, lastSeed uint64

	// rep is the representative failure: the one with the lowest seed, so
	// the report is deterministic regardless of worker interleaving.
	rep *runOutcome

	minDecisions []Decision
	shrinkEvals  int

	verified  bool
	verifyOut *runOutcome
	verifyRep *light.ReplayOutcome

	reproDir  string
	replayCmd string
}

// Hunt runs the campaign: Runs perturbed record runs, failure capture,
// signature dedup, per-cluster shrinking and repro verification, and
// (optionally) artifact bundles. It returns the per-workload report.
func Hunt(cfg Config) (*WorkloadReport, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("flake: no workload")
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1000
	}
	if cfg.Intensity <= 0 {
		cfg.Intensity = 30
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 4
	}
	if cfg.ShrinkBudget <= 0 {
		cfg.ShrinkBudget = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	prog, err := cfg.Workload.Compile()
	if err != nil {
		return nil, fmt.Errorf("flake: compile %s: %w", cfg.Workload.Name, err)
	}
	h := &hunter{
		cfg:  cfg,
		prog: prog,
		mask: analysis.Analyze(prog).InstrumentMask(true),
	}

	start := time.Now()
	clusters, failures := h.campaign()
	cfg.Logf("%s: %d/%d runs failed, %d signature(s) after dedup (%s)",
		cfg.Workload.Name, failures, cfg.Runs, len(clusters), time.Since(start).Round(time.Millisecond))

	for _, c := range clusters {
		h.shrinkCluster(c)
		h.verifyRepro(c)
		cfg.Logf("%s: signature %s: %d captured decisions -> %d minimal (%d evals), verified=%v",
			cfg.Workload.Name, c.sig.Short(), len(c.rep.decisions), len(c.minDecisions),
			c.shrinkEvals, c.verified)
	}

	if cfg.ArtifactsDir != "" {
		if err := h.writeArtifacts(clusters); err != nil {
			return nil, err
		}
	}
	return h.report(clusters, failures, time.Since(start)), nil
}

// campaign fans the perturbed record runs across the worker pool and folds
// the failures into signature clusters.
func (h *hunter) campaign() ([]*cluster, int) {
	var (
		mu       sync.Mutex
		byKey    = make(map[string]*cluster)
		failures int
		next     uint64
		wg       sync.WaitGroup
	)
	for w := 0; w < h.cfg.Jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= uint64(h.cfg.Runs) {
					return
				}
				seed := h.cfg.StartSeed + i
				out := h.record(seed, nil, true)
				sig, _, failed := h.classify(out, true)
				if !failed {
					continue
				}
				mu.Lock()
				failures++
				key := sig.Key()
				c := byKey[key]
				if c == nil {
					c = &cluster{sig: sig, key: key, firstSeed: seed, lastSeed: seed, rep: out}
					byKey[key] = c
				}
				c.count++
				if seed < c.firstSeed {
					c.firstSeed = seed
					c.rep = out
					c.sig = sig // keep the lowest-seed run's representative fields
				}
				if seed > c.lastSeed {
					c.lastSeed = seed
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	clusters := make([]*cluster, 0, len(byKey))
	for _, c := range byKey {
		clusters = append(clusters, c)
	}
	// Rank: most frequent first, seed order as the deterministic tiebreak.
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].count != clusters[j].count {
			return clusters[i].count > clusters[j].count
		}
		return clusters[i].firstSeed < clusters[j].firstSeed
	})
	return clusters, failures
}

// record executes one record run: recorder tee'd through the site tap, with
// either hash-derived perturbation (script nil) or a scripted decision
// trace. When capture is set, the run's non-none decisions are collected for
// the shrinker.
func (h *hunter) record(seed uint64, script *vm.PerturbTrace, capture bool) *runOutcome {
	out := &runOutcome{seed: seed}
	po := &vm.PerturbOptions{Seed: seed, Intensity: h.cfg.Intensity, Trace: script}
	var mu sync.Mutex
	if capture {
		po.OnDecision = func(path string, seq uint64, k vm.PerturbKind) {
			if k == vm.PerturbNone {
				return
			}
			mu.Lock()
			out.decisions = append(out.decisions, Decision{Path: path, Seq: seq, Kind: k})
			mu.Unlock()
		}
	}
	rec := light.NewRecorder(h.cfg.Opts)
	out.tap = newSiteTap(rec)
	out.res = vm.Run(vm.Config{
		Prog:              h.prog,
		Hooks:             out.tap,
		Seed:              seed,
		Instrument:        h.mask,
		MaxStepsPerThread: maxStepsPerThread,
		SleepUnit:         sleepUnit,
		Perturb:           po,
	})
	out.log = rec.Finish(out.res, seed)
	SortDecisions(out.decisions)
	return out
}

// classify decides whether a record run is a failure and computes its
// forensic signature. With withReplay set it also replays the log, which
// both verifies reproduction and catches recorder faults as divergence
// failures; the shrinker's fast path skips the replay for plain test
// failures. The returned ReplayOutcome is non-nil only when a replay ran.
func (h *hunter) classify(out *runOutcome, withReplay bool) (Signature, *light.ReplayOutcome, bool) {
	bug := out.res.FirstBug()
	if !withReplay {
		if bug == nil {
			return Signature{}, nil, false
		}
		return bugSignature(bug, out.log, out.tap), nil, true
	}
	rep, err := light.Replay(h.prog, out.log, light.RunConfig{
		Instrument:        h.mask,
		MaxStepsPerThread: maxStepsPerThread,
	})
	if err != nil {
		return solveSignature(err), nil, true
	}
	if rep.Diverged {
		// A divergence is the recorder's own failure mode (an unsound or
		// incomplete log), distinct from any bug of the program under test.
		return divSignature(rep.Divergence, rep.Reason), rep, true
	}
	if bug == nil {
		return Signature{}, rep, false
	}
	return bugSignature(bug, out.log, out.tap), rep, true
}

// shrinkCluster delta-debugs the representative failure's captured decision
// trace down to a minimal script that still fires the cluster's signature.
func (h *hunter) shrinkCluster(c *cluster) {
	ds := c.rep.decisions
	if len(ds) == 0 {
		c.minDecisions = nil
		return
	}
	// Divergence clusters need the replay to observe their failure; plain
	// test failures are visible from the record run alone.
	needReplay := c.sig.IsDivergence()
	fails := func(sub []Decision) bool {
		for a := 0; a < shrinkAttempts; a++ {
			out := h.record(c.firstSeed, BuildTrace(sub), false)
			if sig, _, failed := h.classify(out, needReplay); failed && sig.Key() == c.key {
				return true
			}
		}
		return false
	}
	c.minDecisions, c.shrinkEvals = ShrinkDecisions(ds, fails, h.cfg.ShrinkBudget)
}

// verifyRepro re-records under the minimal script until the failure fires
// again, then replays that recording and checks reproduction — the claim
// "this bundle deterministically replays the failure" is only written to the
// report after it has been observed once.
//
// A shrink candidate is accepted when any of its attempts fires, so on a
// loaded host, where unperturbed runs also fail now and then, the shrinker
// can settle on a script that fired only by luck. When the minimal script
// cannot re-fire the failure, verification falls back to the
// representative's full captured script, which then becomes the cluster's
// reproducer.
func (h *hunter) verifyRepro(c *cluster) {
	if h.refire(c, c.minDecisions) || len(c.minDecisions) >= len(c.rep.decisions) {
		return
	}
	if h.refire(c, c.rep.decisions) {
		c.minDecisions = c.rep.decisions
	}
}

// refire re-records under the given script until the cluster's failure
// fires, at most reproAttempts times, and records the verification result
// of the first firing run. It reports whether the failure fired.
func (h *hunter) refire(c *cluster, decisions []Decision) bool {
	script := BuildTrace(decisions)
	for attempt := 0; attempt < reproAttempts; attempt++ {
		out := h.record(c.firstSeed, script, false)
		sig, rep, failed := h.classify(out, true)
		if !failed || sig.Key() != c.key {
			continue
		}
		c.verifyOut, c.verifyRep = out, rep
		if c.sig.IsDivergence() {
			// The "bug" is the recorder fault itself: re-firing the
			// divergence from a fresh recording is the reproduction.
			c.verified = true
		} else if rep != nil && !rep.Diverged && light.Reproduced(out.log, rep.Result) {
			c.verified = true
		}
		return true
	}
	return false
}
