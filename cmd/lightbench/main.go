// Command lightbench regenerates the paper's evaluation (Section 5): every
// figure and table, over the 24 modeled benchmarks and the 8 modeled bugs.
//
// Usage:
//
//	lightbench -fig 4            # Figure 4: time overhead, Light vs LEAP vs Stride
//	lightbench -fig 5            # Figure 5: space in Long-integer units
//	lightbench -fig 6            # Figure 6: the eight bug scenarios
//	lightbench -fig 7a|7b        # Figure 7: optimization breakdowns
//	lightbench -table 1          # Table 1: per-bug space/solve/replay
//	lightbench -h2               # Section 5.3 capability matrix
//	lightbench -all              # everything
//	lightbench -report           # workload sweep + GOMAXPROCS sweep -> BENCH_light.json (see -out)
//	lightbench -gate             # rerun the multicore sweep, fail on regression vs -baseline
//	lightbench -procs 1,2,4,8    # GOMAXPROCS ladder for the multicore sweep
//	lightbench -runs 20          # measurement repetitions (default 5)
//	lightbench -suite stamp      # restrict overhead figures to one suite
//
// Observability: -metrics-addr HOST:PORT serves the live pipeline counters
// at /metrics (Prometheus text format) plus the Go profiling endpoints under
// /debug/pprof/. -cpuprofile, -memprofile, and -runtime-trace write whole-run pprof profiles and a Go
// runtime execution trace for offline analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bugs"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 4, 5, 6, 7a, 7b")
	table := flag.Int("table", 0, "table to regenerate: 1")
	h2 := flag.Bool("h2", false, "run the Section 5.3 tool comparison")
	all := flag.Bool("all", false, "run the whole evaluation")
	report := flag.Bool("report", false, "run the workload sweep and write the bench trajectory JSON")
	gate := flag.Bool("gate", false, "rerun the multicore sweep and fail on record-overhead regression vs -baseline")
	baseline := flag.String("baseline", "BENCH_light.json", "committed trajectory file the gate compares against")
	gateThreshold := flag.Float64("gate-threshold", 1.25, "gate fails when a proc level's overhead avg exceeds baseline × this factor")
	procsFlag := flag.String("procs", "1,2,4,8", "GOMAXPROCS ladder for the multicore sweep (comma-separated)")
	out := flag.String("out", "BENCH_light.json", "output path for -report")
	runs := flag.Int("runs", 5, "measurement repetitions per configuration")
	seed := flag.Uint64("seed", 1, "base seed")
	suite := flag.String("suite", "", "restrict to one suite (jgf, stamp, server, dacapo)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics at this address under /metrics")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (post-GC) to this file on exit")
	runtimeTrace := flag.String("runtime-trace", "", "write a Go runtime execution trace to this file")
	flag.Parse()

	if *metricsAddr != "" {
		addr, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics at http://%s/metrics\n", addr)
	}
	profiles := &harness.Profiles{CPUPath: *cpuProfile, MemPath: *memProfile, TracePath: *runtimeTrace}
	if err := profiles.Start(); err != nil {
		fatal(err)
	}

	cfg := harness.Config{Runs: *runs, Seed: *seed}
	ran := false

	selected := func() []*workloads.Workload {
		var out []*workloads.Workload
		for _, w := range workloads.All() {
			if *suite == "" || w.Suite == *suite {
				out = append(out, w)
			}
		}
		return out
	}

	procs, err := parseProcs(*procsFlag)
	if err != nil {
		fatal(err)
	}

	if *report {
		ran = true
		rpt, err := harness.RunReport(selected(), cfg)
		if err != nil {
			fatal(err)
		}
		if err := harness.RunReportSweep(rpt, workloads.Parallel(), procs, cfg); err != nil {
			fatal(err)
		}
		if err := harness.ValidateReport(rpt); err != nil {
			fatal(fmt.Errorf("report failed validation: %w", err))
		}
		if err := harness.WriteReportFile(*out, rpt); err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatReport(rpt))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *gate {
		ran = true
		base, err := harness.ReadReportFile(*baseline)
		if err != nil {
			fatal(fmt.Errorf("bench gate: baseline: %w", err))
		}
		// The gate reruns only the multicore sweep — the cheap, contention-
		// sensitive slice of the report — so it can ride in CI.
		rpt := &harness.Report{Schema: harness.ReportSchema, Runs: cfg.Runs, Seed: cfg.Seed}
		if err := harness.RunReportSweep(rpt, workloads.Parallel(), procs, cfg); err != nil {
			fatal(err)
		}
		fmt.Print(harness.FormatGate(base, rpt, *gateThreshold))
		if err := harness.CompareGate(base, rpt, *gateThreshold); err != nil {
			fatal(err)
		}
		fmt.Println("bench gate: PASS")
	}

	if *all || *fig == "4" || *fig == "5" {
		ran = true
		var rows []*harness.OverheadRow
		for _, w := range selected() {
			row, err := harness.MeasureOverhead(w, cfg)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		if *all || *fig == "4" {
			fmt.Println(harness.FormatFig4(rows))
		}
		if *all || *fig == "5" {
			fmt.Println(harness.FormatFig5(rows))
		}
	}

	if *all || *fig == "6" {
		ran = true
		fmt.Println("Figure 6: real-world bug scenarios")
		for _, b := range bugs.All() {
			fmt.Printf("%-14s %s\n               %s\n", b.ID, b.Issue, b.Scenario)
		}
		fmt.Println()
	}

	if *all || *fig == "7a" || *fig == "7b" {
		ran = true
		var rows []*harness.OptRow
		for _, w := range selected() {
			row, err := harness.MeasureOptimizations(w, cfg)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		if *all || *fig == "7a" {
			fmt.Println(harness.FormatFig7(rows, false))
		}
		if *all || *fig == "7b" {
			fmt.Println(harness.FormatFig7(rows, true))
		}
	}

	if *all || *table == 1 {
		ran = true
		var rows []*harness.Table1Row
		for _, b := range bugs.All() {
			row, err := harness.MeasureTable1(b)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		fmt.Println(harness.FormatTable1(rows))
	}

	if *all || *h2 {
		ran = true
		var rows []*harness.H2Row
		for _, b := range bugs.All() {
			row, err := harness.MeasureH2(b)
			if err != nil {
				fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, ".")
		}
		fmt.Fprintln(os.Stderr)
		fmt.Println(harness.FormatH2(rows))
	}

	if !ran {
		profiles.Stop()
		flag.Usage()
		os.Exit(2)
	}
	if err := profiles.Stop(); err != nil {
		fatal(err)
	}
}

// parseProcs parses the -procs ladder ("1,2,4,8").
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.Atoi(part)
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-procs: bad proc count %q", part)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs: empty ladder")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightbench:", err)
	os.Exit(1)
}
