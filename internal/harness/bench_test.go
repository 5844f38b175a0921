package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestRunReportFullSweep runs the -report pipeline over all 24 workloads at
// Runs:1, appends a two-level multicore sweep, and checks the artifact
// validates and round-trips through JSON with every schema field populated.
func TestRunReportFullSweep(t *testing.T) {
	cfg := Config{Runs: 1, Seed: 1}
	rpt, err := RunReport(workloads.All(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	procs := []int{1, 2}
	if err := RunReportSweep(rpt, workloads.Parallel(), procs, cfg); err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(rpt); err != nil {
		t.Fatalf("report failed its own validation: %v", err)
	}
	want := len(workloads.All()) + len(workloads.Parallel())*len(procs)
	if got := len(rpt.Workloads); got != want {
		t.Fatalf("report has %d rows, want %d", got, want)
	}
	if got := len(rpt.Aggregate.Multicore); got != len(procs) {
		t.Fatalf("report has %d multicore summaries, want %d", got, len(procs))
	}
	for i, m := range rpt.Aggregate.Multicore {
		if m.GOMAXPROCS != procs[i] {
			t.Errorf("multicore summary %d at %d procs, want %d", i, m.GOMAXPROCS, procs[i])
		}
	}

	var buf bytes.Buffer
	if err := WriteReport(&buf, rpt); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != ReportSchema {
		t.Errorf("schema %q, want %q", back.Schema, ReportSchema)
	}
	if err := ValidateReport(&back); err != nil {
		t.Errorf("decoded report failed validation: %v", err)
	}

	// Every row key a downstream consumer reads must exist in the JSON.
	var raw struct {
		Workloads []map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	required := []string{
		"name", "suite", "gomaxprocs", "native_ns", "record_ns", "overhead_factor",
		"rec_read_retries", "rec_seqlock_conflicts", "rec_stripe_waits", "rec_foreign_taints",
		"log_space_longs", "log_bytes", "log_events", "log_bytes_per_1k_events",
		"solve_ms", "solve_components", "solve_largest_component",
		"replay_ms", "replay_ok",
		"ttfr_ms", "solve_cache_hit_rate",
	}
	for _, key := range required {
		if _, ok := raw.Workloads[0][key]; !ok {
			t.Errorf("row JSON missing required key %q", key)
		}
	}
}

func TestValidateReportRejects(t *testing.T) {
	good := func() *Report {
		return &Report{
			Schema: ReportSchema,
			Runs:   1,
			Workloads: []*ReportRow{{
				Name: "w", Suite: "s", GOMAXPROCS: 1,
				NativeNS: 100, RecordNS: 150, OverheadFactor: 1.5,
				SpaceLongs: 10, LogBytes: 20, LogEvents: 30,
				Components: 1, LargestComponent: 1,
				TTFRMS: 1.5, SolveCacheHitRate: 1,
			}},
		}
	}
	// withSweep appends a one-level multicore sweep (one par row plus its
	// summary) so the multicore cross-checks have something to reject.
	withSweep := func(r *Report) *Report {
		row := *r.Workloads[0]
		row.Name, row.Suite, row.GOMAXPROCS = "par-w", workloads.ParallelSuite, 2
		r.Workloads = append(r.Workloads, &row)
		r.Aggregate.Multicore = []MulticoreSummary{
			{GOMAXPROCS: 2, Workloads: 1, OverheadAvg: 1.5, OverheadMax: 1.5},
		}
		return r
	}
	if err := ValidateReport(withSweep(good())); err != nil {
		t.Fatalf("baseline sweep report invalid: %v", err)
	}
	if err := ValidateReport(good()); err != nil {
		t.Fatalf("baseline report invalid: %v", err)
	}
	cases := []struct {
		name   string
		break_ func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "bench/v0" }},
		{"zero runs", func(r *Report) { r.Runs = 0 }},
		{"no workloads", func(r *Report) { r.Workloads = nil }},
		{"empty name", func(r *Report) { r.Workloads[0].Name = "" }},
		{"zero native time", func(r *Report) { r.Workloads[0].NativeNS = 0 }},
		{"zero overhead", func(r *Report) { r.Workloads[0].OverheadFactor = 0 }},
		{"empty log", func(r *Report) { r.Workloads[0].LogEvents = 0 }},
		{"no partition stats", func(r *Report) { r.Workloads[0].Components = 0 }},
		{"negative solve", func(r *Report) { r.Workloads[0].SolveMS = -1 }},
		{"pass rate out of range", func(r *Report) { r.Aggregate.ReplayPassRate = 1.5 }},
		{"zero gomaxprocs", func(r *Report) { r.Workloads[0].GOMAXPROCS = 0 }},
		{"negative retry counter", func(r *Report) { r.Workloads[0].RecReadRetries = -1 }},
		{"missing ttfr", func(r *Report) { r.Workloads[0].TTFRMS = 0 }},
		{"hit rate out of range", func(r *Report) { r.Workloads[0].SolveCacheHitRate = 1.5 }},
	}
	for _, tc := range cases {
		r := good()
		tc.break_(r)
		if err := ValidateReport(r); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	sweepCases := []struct {
		name   string
		break_ func(*Report)
	}{
		{"summary for unswept level", func(r *Report) { r.Aggregate.Multicore[0].GOMAXPROCS = 4 }},
		{"summary row count mismatch", func(r *Report) { r.Aggregate.Multicore[0].Workloads = 3 }},
		{"zero summary overhead", func(r *Report) { r.Aggregate.Multicore[0].OverheadAvg = 0 }},
		{"summary max below avg", func(r *Report) { r.Aggregate.Multicore[0].OverheadMax = 0.5 }},
		{"sweep rows without summary", func(r *Report) { r.Aggregate.Multicore = nil }},
	}
	for _, tc := range sweepCases {
		r := withSweep(good())
		tc.break_(r)
		if err := ValidateReport(r); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestThreadErrorDeterministic checks the error-propagation helper that
// MeasureOverhead/MeasureReportRow use to fail loudly on broken workloads:
// it must pick the lowest thread path so repeated runs report the same error.
func TestThreadErrorDeterministic(t *testing.T) {
	if err := threadError(nil); err != nil {
		t.Errorf("nil result: %v", err)
	}
	ok := &vm.Result{Threads: map[string]*vm.ThreadResult{"0": {}}}
	if err := threadError(ok); err != nil {
		t.Errorf("clean run: %v", err)
	}
	bad := &vm.Result{Threads: map[string]*vm.ThreadResult{
		"0":   {},
		"0.2": {Err: &vm.RuntimeErr{Msg: "second"}},
		"0.1": {Err: &vm.RuntimeErr{Msg: "first"}},
	}}
	err := threadError(bad)
	if err == nil {
		t.Fatal("erroring run: no error")
	}
	if !strings.Contains(err.Error(), "thread 0.1 failed") || !strings.Contains(err.Error(), "first") {
		t.Errorf("error %q does not name the lowest erroring thread", err)
	}
}
