// Command bench is lightperf, the Light benchmark: one seeded, closed-loop
// run of one workload through the record, reproduce and always-on paths,
// timed from outside at every layer call and verified after every replay.
// bench/run.sh builds and runs it:
//
//	bash bench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json for -trace 0, its per-layer metrics for -trace 1. The
// exit status is 1 when any verification failed. bench/README.md has the
// workloads, the metric-to-layer map and how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings of one measuring run.
type options struct {
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	work     string
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed for every program parameter and VM seed")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default: in -work)")
	out := fs.String("out", "", "append the run's report to this file as one JSON line")
	work := fs.String("work", filepath.Join(".bench_build", "lightperf-work"), "scratch directory")
	smoke := fs.Bool("smoke", false, "fixed small run: 3 iterations and 16 session runs, no time budget")
	compare := fs.Bool("compare", false, "compare two -out files against the bounds in BENCHMARK.json: -compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "lightperf: -compare takes two report files")
			return 2
		}
		return compareReports("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "lightperf: need -workload (one of %s), -trace 0 or 1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, smoke: *smoke, work: *work, traceOut: *traceOut}
	rep, err := measure(w, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "lightperf:", err)
		return 2
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "lightperf:", err)
			return 2
		}
	}
	line, err := json.Marshal(result{Correct: rep.OpsFailed == 0, Attempted: rep.OpsAttempted, Failed: rep.OpsFailed, Metrics: rep.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "lightperf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if rep.OpsFailed > 0 {
		return 1
	}
	return 0
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of one run, as -out writes it and -compare
// reads it.
type report struct {
	Workload         string                 `json:"workload"`
	Seed             uint64                 `json:"seed"`
	Seconds          float64                `json:"seconds"`
	Traced           bool                   `json:"traced"`
	GOMAXPROCS       int                    `json:"gomaxprocs"`
	NumCPU           int                    `json:"num_cpu"`
	Iterations       int                    `json:"iterations"`
	FailedIterations int                    `json:"failed_iterations"`
	FailedFrac       float64                `json:"failed_frac"`
	SessionRuns      int                    `json:"session_runs"`
	FullEpochs       int                    `json:"full_epochs"`
	OpsAttempted     int                    `json:"ops_attempted"`
	OpsFailed        int                    `json:"ops_failed"`
	Failures         map[string]int         `json:"failures,omitempty"`
	Metrics          map[string]metricValue `json:"metrics"`
	Timings          map[string]metricValue `json:"timings,omitempty"`
}

// measure runs one workload: set-up passes, then rounds of
// record/reproduce iterations each followed by an always-on session.
func measure(w workload, o options, stdout, stderr io.Writer) (*report, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	if o.traced {
		obs.Enable()
		defer obs.Disable()
	}
	e := newEnv(w, o.seed, o.traced)
	m := &measured{}
	ao, err := openAlwaysOn(o.work)
	if err != nil {
		return nil, err
	}
	m.ao = ao

	n, maxRuns := rounds, smokeRuns
	if o.smoke {
		n = 1
	}
	roundLen := time.Duration(o.seconds * float64(time.Second) / float64(n))
	start := time.Now()
	iters, failedIters := 0, 0
	for r := 0; r < n; r++ {
		// Set-up passes: three before the first round, one before each
		// later one, so that setup_s samples the host across the run.
		passes := 1
		if r == 0 {
			passes = setupPasses
		}
		for i := 0; i < passes; i++ {
			d, compile, analyze, err := e.setup(len(m.setups))
			if err != nil {
				ao.close()
				return nil, err
			}
			m.setups = append(m.setups, d)
			m.compiles = append(m.compiles, compile)
			m.analyzes = append(m.analyzes, analyze)
		}
		roundStart := len(m.samples)
		roundEnd := time.Now().Add(roundLen)
		iterEnd := roundEnd.Add(-time.Duration(float64(roundLen) * w.sessionShare))
		more := func(first bool) bool {
			if o.smoke {
				return iters < smokeIters
			}
			return first || time.Now().Before(iterEnd) // at least one per round
		}
		for first := true; more(first); first = false {
			if s := e.iterate(iters); s.ok {
				m.samples = append(m.samples, s)
			} else {
				failedIters++
			}
			iters++
		}
		if !o.smoke {
			maxRuns = ao.runsFor(time.Until(roundEnd), m.samples)
		}
		e.session(ao, r, maxRuns, m.nativeMSSince(roundStart))
	}
	fmt.Fprintf(stderr, "lightperf: %s seed %d: %d iterations (%d failed), %d session runs, %d full epochs, %.1fs\n",
		w.name, o.seed, iters, failedIters, ao.runs, len(ao.epochReplayMS), time.Since(start).Seconds())

	m.siteFrac = ratio(float64(countTrue(e.maskO2)), float64(len(e.maskO2)))
	defs, values := endToEnd, m.endToEndValues()
	if o.traced {
		defs, values = perLayer, m.perLayerValues()
	}
	if err := ao.close(); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(),
		Iterations: iters, FailedIterations: failedIters, FailedFrac: ratio(float64(failedIters), float64(iters)),
		SessionRuns: ao.runs, FullEpochs: len(ao.epochReplayMS),
		OpsAttempted: e.led.attempted, OpsFailed: e.led.failed, Failures: e.led.failures,
		Metrics: map[string]metricValue{},
	}
	// A metric with no samples (every iteration failed) reads 0: JSON has
	// no NaN, and the failure count already rejects the run.
	value := func(d metricDef) metricValue {
		v := values[d.name]
		if math.IsNaN(v) {
			v = 0
		}
		return metricValue{Value: v, Unit: d.unit}
	}
	for _, d := range defs {
		rep.Metrics[d.name] = value(d)
	}
	printMetrics(stdout, rep, defs, rep.Metrics)
	if !o.traced {
		rep.Timings = map[string]metricValue{}
		for _, d := range timings {
			rep.Timings[d.name] = value(d)
		}
		fmt.Fprintln(stdout, "timings (not bounded):")
		printMetrics(stdout, nil, timings, rep.Timings)
	}
	if o.traced {
		fmt.Fprintln(stdout)
		e.tr.printLayers(stdout)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		}
		if err := e.tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "chrome trace: %s (%d spans)\n", path, len(e.tr.spans))
	}
	if len(e.led.failures) > 0 {
		keys := make([]string, 0, len(e.led.failures))
		for k := range e.led.failures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stderr, "lightperf: FAILED %s x%d\n", k, e.led.failures[k])
		}
	}
	return rep, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// printMetrics writes a human-readable metric table, headed by the run's
// summary when rep is not nil.
func printMetrics(w io.Writer, rep *report, defs []metricDef, vals map[string]metricValue) {
	if rep != nil {
		fmt.Fprintf(w, "workload %s  seed %d  gomaxprocs %d  iterations %d  failed_frac %g  ops %d/%d failed\n",
			rep.Workload, rep.Seed, rep.GOMAXPROCS, rep.Iterations, rep.FailedFrac, rep.OpsFailed, rep.OpsAttempted)
	}
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "  %-46s %14.4f %s\n", d.name, v.Value, v.Unit)
	}
}

// appendReport adds the report to path as one JSON line.
func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readReports reads a file of report lines and returns, per workload,
// the median of each metric over the workload's runs, with the workloads
// in the order they first appear.
func readReports(path string) (map[string]map[string]float64, []string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	runs := map[string]map[string][]float64{}
	var order []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" {
			return nil, nil, fmt.Errorf("%s: a line has no workload; pass files written by -out", path)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, v := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], v.Value)
		}
	}
	medians := map[string]map[string]float64{}
	for wl, metrics := range runs {
		medians[wl] = map[string]float64{}
		for name, vs := range metrics {
			medians[wl][name] = median(vs)
		}
	}
	return medians, order, nil
}

// compareReports prints, for every workload and end-to-end metric in both
// files, the two medians over the file's runs, the relative change and
// whether the change stays within the bound BENCHMARK.json gives the
// metric. It returns 1 on any breach.
func compareReports(declPath, aPath, bPath string, stdout, stderr io.Writer) int {
	decl, err := readDeclaration(declPath)
	if err != nil {
		fmt.Fprintln(stderr, "lightperf:", err)
		return 2
	}
	a, order, err := readReports(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "lightperf:", err)
		return 2
	}
	b, _, err := readReports(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "lightperf:", err)
		return 2
	}
	breaches, compared := 0, 0
	fmt.Fprintf(stdout, "%-16s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wl := range order {
		for _, d := range decl.EndToEnd {
			va, okA := a[wl][d.Name]
			vb, okB := b[wl][d.Name]
			if !okA || !okB {
				continue
			}
			compared++
			delta := ratio(vb-va, va)
			worse := delta
			if d.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "%-16s %-22s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wl, d.Name, va, vb, 100*delta, 100*d.Bound, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "lightperf: no workload and metric appear in both files")
		return 2
	}
	fmt.Fprintf(stdout, "%d compared, %d outside their bound\n", compared, breaches)
	if breaches > 0 {
		return 1
	}
	return 0
}

// declaration is the part of BENCHMARK.json the benchmark reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

// declMetric is one metric entry; per-layer metrics have no bound.
type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return &d, nil
}
