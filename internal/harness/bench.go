package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/light"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// ReportSchema identifies the BENCH_light.json layout; bump it when a field
// changes meaning or disappears (adding fields is compatible). v2 added the
// graph-first engine columns (solve_fastpath_rate, solve_propagation_resolved,
// solve_cache_hits) and the engine itself ("solve_engine", dropped again
// with the engine knob: there is one engine, and readers ignore the field
// in older files). v3 adds the
// GOMAXPROCS sweep: a per-row "gomaxprocs" column, recorder contention
// counters (seqlock conflicts, read retries, stripe waits, foreign taints)
// from an extra metrics-enabled record pass, multicore rows for the "par"
// contention suite at 1/2/4/8 procs, and per-proc-level aggregate summaries
// under aggregate.multicore. v4 adds "ttfr_ms" (time-to-first-replay: record plus a cold solve,
// light.RecordAndSolve, timed like the record column) and
// "solve_cache_hit_rate" from two extra warm solve passes of the row's log
// through the whole-schedule cache. "solve_cache_hits" now counts the
// whole-schedule hits those warm passes observe, which fixes the column
// reading 0 on every row: the sweep workloads are 100%
// propagation-fastpath, so the residual-component cache (since deleted)
// never engaged, and its share of the column was always 0. The
// streaming solver's "record_solve_ms" column and "ttfr_speedup" aggregate
// were dropped with the streaming solver, and the report- and row-level
// "solve_jobs" and the row-level "solve_worker_utilization" with the
// component worker pool (tier 2 solves serially); as with "solve_engine",
// readers ignore them in older files.
const ReportSchema = "light-bench/v4"

// DefaultSweepProcs is the GOMAXPROCS ladder of the multicore sweep.
var DefaultSweepProcs = []int{1, 2, 4, 8}

// Report is the schema-versioned output of `lightbench -report`: the perf
// trajectory file (BENCH_light.json) that lets successive PRs compare
// recording overhead, log volume, solve cost, and replay determinism on the
// full workload sweep.
type Report struct {
	Schema     string        `json:"schema"`
	Runs       int           `json:"runs"`
	Seed       uint64        `json:"seed"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Workloads  []*ReportRow  `json:"workloads"`
	Aggregate  ReportSummary `json:"aggregate"`
}

// ReportRow is one workload's measurements. Time columns are mean wall times
// over Report.Runs runs; the log/solve/replay columns come from one
// representative record→solve→replay pass at the base seed.
type ReportRow struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`

	// GOMAXPROCS is the proc count the row was measured at. The 24 base
	// workloads run at the process default; the "par" contention suite is
	// re-measured at every level of the sweep ladder (schema v3).
	GOMAXPROCS int `json:"gomaxprocs"`

	// NativeNS and RecordNS are mean uninstrumented vs Light-recorded run
	// times; OverheadFactor is their ratio (1.44 = +44%, the paper's Fig. 4
	// quantity plus one).
	NativeNS       int64   `json:"native_ns"`
	RecordNS       int64   `json:"record_ns"`
	OverheadFactor float64 `json:"overhead_factor"`

	// Log volume: the paper's Long-integer accounting (Fig. 5) plus the
	// actual wire size of the binary codec.
	SpaceLongs          int64   `json:"log_space_longs"`
	LogBytes            int64   `json:"log_bytes"`
	LogEvents           int64   `json:"log_events"`
	LogBytesPer1kEvents float64 `json:"log_bytes_per_1k_events"`

	// Recorder contention counters (schema v3), deltas over one extra
	// metrics-enabled record pass at the base seed: how often the optimistic
	// read loop re-validated, how often a write section lost the per-location
	// seqlock CAS (and how often the fallback stripe lock then blocked), and
	// how many write-bearing runs a foreign read tainted shut. These are the
	// quantities the multicore sweep exists to expose.
	RecReadRetries   int64 `json:"rec_read_retries"`
	RecSeqConflicts  int64 `json:"rec_seqlock_conflicts"`
	RecStripeWaits   int64 `json:"rec_stripe_waits"`
	RecForeignTaints int64 `json:"rec_foreign_taints"`

	// Offline solve (Table 1's "Solve" column) and its location counts.
	SolveMS          float64 `json:"solve_ms"`
	Components       int     `json:"solve_components"`
	LargestComponent int     `json:"solve_largest_component"`

	// Graph-first engine columns (schema v2, DESIGN.md §4d): the fraction of
	// components fully decided by propagation, the disjunctions discharged
	// without search, and whole-schedule cache hits observed by the v4 warm
	// passes.
	SolveFastpathRate        float64 `json:"solve_fastpath_rate"`
	SolvePropagationResolved int     `json:"solve_propagation_resolved"`
	SolveCacheHits           int     `json:"solve_cache_hits"`

	// Schema v4 columns: the time-to-first-replay (record plus a cold
	// solve), and the hit rate of two warm re-solves of the row's log
	// through the whole-schedule cache.
	TTFRMS            float64 `json:"ttfr_ms"`
	SolveCacheHitRate float64 `json:"solve_cache_hit_rate"`

	// Replay: enforced re-execution time and the determinism verdict
	// (no divergence and Definition 3.3 correlation).
	ReplayMS float64 `json:"replay_ms"`
	ReplayOK bool    `json:"replay_ok"`
}

// ReportSummary aggregates the sweep.
type ReportSummary struct {
	OverheadFactor          Aggregate `json:"overhead_factor"`
	LogBytesPer1kEventsMean float64   `json:"log_bytes_per_1k_events_mean"`
	SolveMSTotal            float64   `json:"solve_ms_total"`
	// SolveFastpathRate is the component-weighted fraction of constraint
	// components across the sweep that the graph-first engine decided by
	// propagation alone (the ≥0.8 acceptance quantity).
	SolveFastpathRate float64 `json:"solve_fastpath_rate"`
	// ReplayPassRate is the fraction of workloads whose replay neither
	// diverged nor failed the reproduction check.
	ReplayPassRate float64 `json:"replay_pass_rate"`
	// Multicore aggregates the GOMAXPROCS sweep over the contention suite:
	// one entry per proc level, in ladder order (schema v3). Empty when the
	// report was built without a sweep.
	Multicore []MulticoreSummary `json:"multicore,omitempty"`
}

// MulticoreSummary is the record-overhead aggregate of the contention suite
// at one GOMAXPROCS level — the quantity the bench gate compares.
type MulticoreSummary struct {
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Workloads   int     `json:"workloads"`
	OverheadAvg float64 `json:"overhead_avg"`
	OverheadMax float64 `json:"overhead_max"`
}

// MeasureReportRow produces one workload's report row: native vs Light
// record timing over cfg.Runs runs, then one encode→solve→replay pass.
// Any workload thread error fails the measurement — a broken workload must
// not report a fake speedup.
func MeasureReportRow(w *workloads.Workload, cfg Config) (*ReportRow, error) {
	prog, err := w.Compile()
	if err != nil {
		return nil, err
	}
	an := analysis.Analyze(prog)
	maskAll := an.InstrumentMask(false)
	maskO2 := an.InstrumentMask(true)

	row := &ReportRow{Name: w.Name, Suite: w.Suite, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var runErr error
	note := func(res *vm.Result, phase string) {
		if runErr == nil {
			if err := threadError(res); err != nil {
				runErr = fmt.Errorf("workload %s (%s): %w", w.Name, phase, err)
			}
		}
	}

	row.NativeNS = measureMin(cfg, func(seed uint64) {
		note(vm.Run(vm.Config{Prog: prog, Seed: seed, Instrument: maskAll}), "native")
	}).Nanoseconds()
	row.RecordNS = measureMin(cfg, func(seed uint64) {
		rec := light.NewRecorder(light.Options{O1: true})
		res := vm.Run(vm.Config{Prog: prog, Hooks: rec, Seed: seed, Instrument: maskO2})
		rec.Finish(res, seed)
		note(res, "record")
	}).Nanoseconds()
	if runErr != nil {
		return nil, runErr
	}
	if row.NativeNS > 0 {
		row.OverheadFactor = float64(row.RecordNS) / float64(row.NativeNS)
	}

	// Contention columns: one extra record pass with metrics enabled (the
	// timed passes above run with whatever the process had, normally
	// disabled, so observation never perturbs the timing columns).
	wasOn := obs.Enabled()
	if !wasOn {
		obs.Enable()
	}
	before := light.SnapshotRecorderCounters()
	{
		rec := light.NewRecorder(light.Options{O1: true})
		res := vm.Run(vm.Config{Prog: prog, Hooks: rec, Seed: cfg.Seed, Instrument: maskO2})
		rec.Finish(res, cfg.Seed)
		note(res, "record-counters")
	}
	delta := light.SnapshotRecorderCounters().Sub(before)
	if !wasOn {
		obs.Disable()
	}
	if runErr != nil {
		return nil, runErr
	}
	row.RecReadRetries = int64(delta.ReadRetries)
	row.RecSeqConflicts = int64(delta.SeqConflicts)
	row.RecStripeWaits = int64(delta.StripeContention)
	row.RecForeignTaints = int64(delta.ForeignTaints)

	// One representative pipeline pass at the base seed for the offline
	// columns.
	rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: cfg.Seed, Instrument: maskO2})
	note(rec.Result, "record")
	if runErr != nil {
		return nil, runErr
	}
	row.SpaceLongs = rec.Log.SpaceLongs
	row.LogEvents = int64(rec.Log.Events())
	row.LogBytes, err = trace.EncodedBytes(rec.Log)
	if err != nil {
		return nil, fmt.Errorf("workload %s: encode: %w", w.Name, err)
	}
	if row.LogEvents > 0 {
		row.LogBytesPer1kEvents = float64(row.LogBytes) * 1000 / float64(row.LogEvents)
	}

	rep, err := light.Replay(prog, rec.Log, light.RunConfig{Instrument: maskO2})
	if err != nil {
		return nil, fmt.Errorf("workload %s: replay: %w", w.Name, err)
	}
	row.SolveMS = float64(rep.SolveTime) / float64(time.Millisecond)
	row.ReplayMS = float64(rep.ReplayTime) / float64(time.Millisecond)
	row.Components = rep.Schedule.Stats.Components
	row.LargestComponent = rep.Schedule.Stats.LargestComponent
	row.SolveFastpathRate = rep.Schedule.Stats.FastpathRate()
	row.SolvePropagationResolved = rep.Schedule.Stats.Resolved
	row.ReplayOK = !rep.Diverged && light.Reproduced(rec.Log, rep.Result)
	if err := light.CheckSchedule(rec.Log, rep.Schedule); err != nil {
		return nil, fmt.Errorf("workload %s: schedule: %w", w.Name, err)
	}

	// Time-to-first-replay, timed like the record column. The cache reset
	// keeps every solve cold.
	row.TTFRMS = float64(measureMin(cfg, func(seed uint64) {
		light.ResetScheduleCache()
		out, _, _, _, err := light.RecordAndSolve(prog, light.Options{O1: true}, light.RunConfig{Seed: seed, Instrument: maskO2}, 0)
		note(out.Result, "ttfr")
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("workload %s: ttfr solve: %w", w.Name, err)
		}
	})) / float64(time.Millisecond)
	if runErr != nil {
		return nil, runErr
	}

	// Warm-cache columns: re-solve the representative log through the
	// whole-schedule cache. The first pass populates; the measured passes
	// should hit, so a healthy cache puts the hit rate at 1.0.
	if _, _, err := light.ComputeScheduleCached(rec.Log); err != nil {
		return nil, fmt.Errorf("workload %s: cache populate: %w", w.Name, err)
	}
	const warmPasses = 2
	hits := 0
	for i := 0; i < warmPasses; i++ {
		_, hit, err := light.ComputeScheduleCached(rec.Log)
		if err != nil {
			return nil, fmt.Errorf("workload %s: warm solve: %w", w.Name, err)
		}
		if hit {
			hits++
		}
	}
	row.SolveCacheHits = hits
	row.SolveCacheHitRate = float64(hits) / warmPasses
	return row, nil
}

// RunReport measures every workload in ws and assembles the report. The
// first workload failure aborts the report: a partial trajectory would
// silently shift the aggregates.
func RunReport(ws []*workloads.Workload, cfg Config) (*Report, error) {
	rpt := &Report{
		Schema:     ReportSchema,
		Runs:       cfg.Runs,
		Seed:       cfg.Seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var (
		passes        int
		bytesPer      float64
		withRatio     int
		fastpathComps float64
		totalComps    int
	)
	for _, w := range ws {
		row, err := MeasureReportRow(w, cfg)
		if err != nil {
			return nil, err
		}
		rpt.Workloads = append(rpt.Workloads, row)
		rpt.Aggregate.SolveMSTotal += row.SolveMS
		if row.ReplayOK {
			passes++
		}
		if row.LogBytesPer1kEvents > 0 {
			bytesPer += row.LogBytesPer1kEvents
			withRatio++
		}
		fastpathComps += row.SolveFastpathRate * float64(row.Components)
		totalComps += row.Components
	}
	if totalComps > 0 {
		rpt.Aggregate.SolveFastpathRate = fastpathComps / float64(totalComps)
	}
	if n := len(rpt.Workloads); n > 0 {
		rpt.Aggregate.ReplayPassRate = float64(passes) / float64(n)
	}
	if withRatio > 0 {
		rpt.Aggregate.LogBytesPer1kEventsMean = bytesPer / float64(withRatio)
	}
	rpt.Aggregate.OverheadFactor = aggregateRows(baseRows(rpt))
	return rpt, nil
}

// RunReportSweep appends the GOMAXPROCS sweep to a report: every workload of
// the contention suite is re-measured at each proc level (rows carry their
// level in the "gomaxprocs" column) and the per-level record-overhead
// aggregates land in Aggregate.Multicore. The process GOMAXPROCS is restored
// on return.
func RunReportSweep(rpt *Report, par []*workloads.Workload, procs []int, cfg Config) error {
	if len(par) == 0 || len(procs) == 0 {
		return nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		sum := MulticoreSummary{GOMAXPROCS: p}
		for _, w := range par {
			row, err := MeasureReportRow(w, cfg)
			if err != nil {
				return err
			}
			rpt.Workloads = append(rpt.Workloads, row)
			sum.Workloads++
			sum.OverheadAvg += row.OverheadFactor
			if row.OverheadFactor > sum.OverheadMax {
				sum.OverheadMax = row.OverheadFactor
			}
		}
		sum.OverheadAvg /= float64(sum.Workloads)
		rpt.Aggregate.Multicore = append(rpt.Aggregate.Multicore, sum)
	}
	return nil
}

// baseRows filters a report down to the single-proc trajectory rows (the
// 24-workload sweep), excluding the multicore contention suite.
func baseRows(rpt *Report) []*ReportRow {
	rows := make([]*ReportRow, 0, len(rpt.Workloads))
	for _, r := range rpt.Workloads {
		if r.Suite != workloads.ParallelSuite {
			rows = append(rows, r)
		}
	}
	return rows
}

// aggregateRows computes the overhead-factor aggregate over report rows.
func aggregateRows(rows []*ReportRow) Aggregate {
	over := make([]*OverheadRow, 0, len(rows))
	for _, r := range rows {
		over = append(over, &OverheadRow{
			Native: time.Duration(r.NativeNS),
			Light:  time.Duration(r.RecordNS),
		})
	}
	agg := Aggregates(over, func(o *OverheadRow) float64 {
		if o.Native <= 0 {
			return 0
		}
		return float64(o.Light) / float64(o.Native)
	})
	return agg
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, rpt *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rpt)
}

// WriteReportFile writes the report to path (the bench trajectory file,
// conventionally BENCH_light.json at the repository root).
func WriteReportFile(path string, rpt *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteReport(f, rpt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ValidateReport checks the structural invariants every consumer of
// BENCH_light.json relies on; the report e2e test enforces it.
func ValidateReport(rpt *Report) error {
	if rpt.Schema != ReportSchema {
		return fmt.Errorf("schema %q, want %q", rpt.Schema, ReportSchema)
	}
	if rpt.Runs <= 0 {
		return fmt.Errorf("runs %d, want > 0", rpt.Runs)
	}
	if len(rpt.Workloads) == 0 {
		return fmt.Errorf("report has no workloads")
	}
	sweepProcs := map[int]int{} // proc level -> par-suite row count
	for _, r := range rpt.Workloads {
		switch {
		case r.Name == "" || r.Suite == "":
			return fmt.Errorf("row with empty name/suite: %+v", r)
		case r.GOMAXPROCS <= 0:
			return fmt.Errorf("%s: gomaxprocs %d, want >= 1", r.Name, r.GOMAXPROCS)
		case r.NativeNS <= 0 || r.RecordNS <= 0:
			return fmt.Errorf("%s: non-positive timings (native %d, record %d)", r.Name, r.NativeNS, r.RecordNS)
		case r.OverheadFactor <= 0:
			return fmt.Errorf("%s: overhead factor %g", r.Name, r.OverheadFactor)
		case r.RecReadRetries < 0 || r.RecSeqConflicts < 0 || r.RecStripeWaits < 0 || r.RecForeignTaints < 0:
			return fmt.Errorf("%s: negative contention counters", r.Name)
		case r.LogEvents <= 0 || r.LogBytes <= 0 || r.SpaceLongs <= 0:
			return fmt.Errorf("%s: empty log (events %d, bytes %d, longs %d)", r.Name, r.LogEvents, r.LogBytes, r.SpaceLongs)
		case r.Components <= 0 || r.LargestComponent <= 0:
			return fmt.Errorf("%s: missing location stats (%d components, largest %d)", r.Name, r.Components, r.LargestComponent)
		case r.SolveMS < 0 || r.ReplayMS < 0:
			return fmt.Errorf("%s: negative solve/replay time", r.Name)
		case r.SolveFastpathRate < 0 || r.SolveFastpathRate > 1:
			return fmt.Errorf("%s: fastpath rate %g outside [0,1]", r.Name, r.SolveFastpathRate)
		case r.SolvePropagationResolved < 0 || r.SolveCacheHits < 0:
			return fmt.Errorf("%s: negative engine counters (resolved %d, cache hits %d)",
				r.Name, r.SolvePropagationResolved, r.SolveCacheHits)
		case r.TTFRMS <= 0:
			return fmt.Errorf("%s: missing ttfr column (%g ms)", r.Name, r.TTFRMS)
		case r.SolveCacheHitRate < 0 || r.SolveCacheHitRate > 1:
			return fmt.Errorf("%s: solve cache hit rate %g outside [0,1]", r.Name, r.SolveCacheHitRate)
		}
		if r.Suite == workloads.ParallelSuite {
			sweepProcs[r.GOMAXPROCS]++
		}
	}
	if rpt.Aggregate.ReplayPassRate < 0 || rpt.Aggregate.ReplayPassRate > 1 {
		return fmt.Errorf("replay pass rate %g outside [0,1]", rpt.Aggregate.ReplayPassRate)
	}
	if rpt.Aggregate.SolveFastpathRate < 0 || rpt.Aggregate.SolveFastpathRate > 1 {
		return fmt.Errorf("sweep fastpath rate %g outside [0,1]", rpt.Aggregate.SolveFastpathRate)
	}
	// Multicore summaries and par-suite rows must agree: one summary per
	// proc level, each covering that level's row count.
	if len(sweepProcs) != len(rpt.Aggregate.Multicore) {
		return fmt.Errorf("%d multicore summaries for %d swept proc levels", len(rpt.Aggregate.Multicore), len(sweepProcs))
	}
	for _, m := range rpt.Aggregate.Multicore {
		switch {
		case m.GOMAXPROCS <= 0:
			return fmt.Errorf("multicore summary with gomaxprocs %d", m.GOMAXPROCS)
		case m.Workloads != sweepProcs[m.GOMAXPROCS]:
			return fmt.Errorf("multicore summary at %d procs claims %d workloads, rows have %d",
				m.GOMAXPROCS, m.Workloads, sweepProcs[m.GOMAXPROCS])
		case m.OverheadAvg <= 0 || m.OverheadMax < m.OverheadAvg:
			return fmt.Errorf("multicore summary at %d procs: avg %g, max %g", m.GOMAXPROCS, m.OverheadAvg, m.OverheadMax)
		}
	}
	return nil
}

// FormatReport renders the human-readable sweep table that accompanies the
// JSON artifact on stdout.
func FormatReport(rpt *Report) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("lightbench report (%s, %d runs, seed %d)\n",
		rpt.Schema, rpt.Runs, rpt.Seed))
	sb.WriteString(fmt.Sprintf("%-18s %5s %10s %10s %9s %12s %9s %6s %9s %9s %6s %6s\n",
		"benchmark", "procs", "native", "record", "overhead", "bytes/1kev", "solve", "fast%", "ttfr", "replay", "hit%", "ok"))
	for _, r := range rpt.Workloads {
		sb.WriteString(fmt.Sprintf("%-18s %5d %10s %10s %8.2fx %12.0f %8.2fms %5.0f%% %8.2fms %8.2fms %5.0f%% %6v\n",
			r.Name, r.GOMAXPROCS,
			time.Duration(r.NativeNS).Round(time.Microsecond),
			time.Duration(r.RecordNS).Round(time.Microsecond),
			r.OverheadFactor, r.LogBytesPer1kEvents, r.SolveMS,
			r.SolveFastpathRate*100, r.TTFRMS, r.ReplayMS,
			r.SolveCacheHitRate*100, r.ReplayOK))
	}
	a := rpt.Aggregate
	sb.WriteString(fmt.Sprintf("\noverhead factor: avg %.2fx, median %.2fx, min %.2fx, max %.2fx\n",
		a.OverheadFactor.Average, a.OverheadFactor.Median, a.OverheadFactor.Min, a.OverheadFactor.Max))
	sb.WriteString(fmt.Sprintf("log volume: %.0f bytes per 1k events (mean); solve total %.2fms; fastpath rate %.0f%%; replay pass rate %.0f%%\n",
		a.LogBytesPer1kEventsMean, a.SolveMSTotal, a.SolveFastpathRate*100, a.ReplayPassRate*100))
	for _, m := range a.Multicore {
		sb.WriteString(fmt.Sprintf("multicore @%d procs: record overhead avg %.2fx, max %.2fx over %d workloads\n",
			m.GOMAXPROCS, m.OverheadAvg, m.OverheadMax, m.Workloads))
	}
	return sb.String()
}

// threadError returns the first per-thread error of a run (in thread-path
// order, for determinism), or nil for a clean run.
func threadError(res *vm.Result) error {
	if res == nil {
		return nil
	}
	var paths []string
	for p, tr := range res.Threads {
		if tr.Err != nil {
			paths = append(paths, p)
		}
	}
	if len(paths) == 0 {
		return nil
	}
	min := paths[0]
	for _, p := range paths[1:] {
		if p < min {
			min = p
		}
	}
	return fmt.Errorf("thread %s failed: %w", min, res.Threads[min].Err)
}
