package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/trace"
)

// lastResult parses the last line of a run's standard output.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last output line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

// skipUnderRace skips tests that run native iterations; see raceDetector.
func skipUnderRace(t *testing.T) {
	if raceDetector {
		t.Skip("native runs of racy MiniJ programs race by design")
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	skipUnderRace(t)
	start := time.Now()
	for _, w := range workloads {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", w.name, "-seed", "1", "-smoke", "-work", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", w.name, code, stdout.String(), stderr.String())
		}
		r := lastResult(t, stdout.String())
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(r.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			v, ok := r.Metrics[d.name]
			if !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.name, d.name, v, d.unit)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run of every workload took %v, want under 30s", d)
	}
}

func TestTracedRunCoversPerLayerMetrics(t *testing.T) {
	skipUnderRace(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "always-on", "-smoke", "-trace", "1", "-trace-out", tracePath, "-work", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	r := lastResult(t, stdout.String())
	for _, d := range perLayer {
		v, ok := r.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
			t.Errorf("per-layer metric %s = %+v, want a number in %s", d.name, v, d.unit)
		}
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	// always-on exercises every layer, and O2 elides some of its sites.
	for _, name := range []string{"analysis.instrumented_site_frac", "vm.native_ms_p50", "light.recorder.self_ms_p50",
		"light.solve.disjunctions", "light.replay.ms_p50", "epoch.fsyncs_per_epoch", "epoch.presolved_frac"} {
		if v := r.Metrics[name].Value; !(v > 0) {
			t.Errorf("per-layer metric %s = %v, want > 0", name, v)
		}
	}
	if v := r.Metrics["analysis.instrumented_site_frac"].Value; v >= 1 {
		t.Errorf("analysis.instrumented_site_frac = %v: O2 elided no site", v)
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("trace event %v has no %q", ev, k)
			}
		}
		names[ev["name"].(string)] = true
	}
	for _, want := range []string{"vm.native", "light.record", "light.solve", "light.replay", "epoch.replay"} {
		if !names[want] {
			t.Errorf("chrome trace has no %s span", want)
		}
	}
}

func TestGeneratorsCompileAndRepeat(t *testing.T) {
	for _, w := range workloads {
		seen := map[string]bool{}
		for seed := uint64(1); seed <= 20; seed++ {
			src := newEnv(w, seed, false).src
			if again := newEnv(w, seed, false).src; again != src {
				t.Fatalf("%s seed %d: two generations differ", w.name, seed)
			}
			if _, err := compiler.CompileSource(src); err != nil {
				t.Fatalf("%s seed %d: %v\n%s", w.name, seed, err, src)
			}
			seen[src] = true
		}
		if len(seen) < 10 {
			t.Errorf("%s: 20 seeds gave only %d distinct programs", w.name, len(seen))
		}
	}
}

func TestDroppedDependencesCountAsFailures(t *testing.T) {
	skipUnderRace(t)
	w, _ := workloadByName("racy-dense")
	e := newEnv(w, 1, false)
	e.opts.FaultDropDep = func(d trace.Dep) bool { return !d.W.IsInitial() && d.W.Thread != d.R.Thread }
	if _, _, _, err := e.setup(0); err != nil {
		t.Fatal(err)
	}
	if s := e.iterate(0); s.ok {
		t.Fatal("an iteration recorded with dropped dependences passed verification")
	}
	if e.led.failed == 0 || e.led.failures["native"]+e.led.failures["record"] > 0 {
		t.Fatalf("failures %v, want verification failures only", e.led.failures)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one value = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestDeclarationMatches keeps BENCHMARK.json and the metric tables in
// step, and checks the limits the declaration must keep.
func TestDeclarationMatches(t *testing.T) {
	d, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), want %q with a why of at most 200", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []declMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q of %s is malformed", kind, m.Unit, m.Name)
			}
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
	var setupBound float64
	for _, m := range d.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range d.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func TestCompareFlagsBreaches(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, record, session float64) string {
		p := filepath.Join(dir, name)
		rep := &report{Workload: "racy-dense", Metrics: map[string]metricValue{
			"record_overhead":  {record, "x"},
			"session_overhead": {session, "x"},
		}}
		if err := appendReport(p, rep); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", 1.5, 2)
	same := write("b.json", 1.65, 2.3)  // +10% and +15%: within 15% and 20%
	worse := write("c.json", 1.8, 2)    // +20% record overhead
	better := write("d.json", 1.0, 1.0) // improvements never breach
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {worse, 1}, {better, 0}} {
		var stdout, stderr bytes.Buffer
		if got := compareReports("../BENCHMARK.json", base, c.b, &stdout, &stderr); got != c.want {
			t.Errorf("compare %s: exit %d, want %d\n%s%s", filepath.Base(c.b), got, c.want, stdout.String(), stderr.String())
		}
	}
}
