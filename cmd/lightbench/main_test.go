package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/workloads"
)

// buildLightbench compiles the CLI once per test into a temp dir.
func buildLightbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lightbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lightbench: %v\n%s", err, out)
	}
	return bin
}

// TestReportEndToEnd drives `lightbench -report` through the built binary
// and checks the artifact is schema-valid JSON covering the full sweep.
func TestReportEndToEnd(t *testing.T) {
	bin := buildLightbench(t)
	out := filepath.Join(t.TempDir(), "BENCH_light.json")

	cmd := exec.Command(bin, "-report", "-runs", "1", "-out", out)
	stdout, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("lightbench -report: %v\n%s", err, stdout)
	}
	if !strings.Contains(string(stdout), "overhead factor:") {
		t.Errorf("stdout missing the summary line:\n%s", stdout)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rpt harness.Report
	if err := json.Unmarshal(raw, &rpt); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if err := harness.ValidateReport(&rpt); err != nil {
		t.Fatalf("artifact failed validation: %v", err)
	}
	if rpt.Schema != harness.ReportSchema {
		t.Errorf("schema %q, want %q", rpt.Schema, harness.ReportSchema)
	}
	// The default -report covers all 24 base workloads plus the parallel
	// suite once per level of the default GOMAXPROCS ladder.
	want := len(workloads.All()) + len(workloads.Parallel())*len(harness.DefaultSweepProcs)
	if got := len(rpt.Workloads); got != want {
		t.Errorf("artifact covers %d workloads, want the full sweep of %d", got, want)
	}
	if got, want := len(rpt.Aggregate.Multicore), len(harness.DefaultSweepProcs); got != want {
		t.Errorf("artifact has %d multicore summaries, want %d", got, want)
	}

	// Required fields must be present as JSON keys, not just as zero values
	// the decoder filled in.
	var rawRpt struct {
		Workloads []map[string]any `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &rawRpt); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"name", "suite", "gomaxprocs", "native_ns", "record_ns", "overhead_factor",
		"rec_read_retries", "rec_seqlock_conflicts", "rec_stripe_waits", "rec_foreign_taints",
		"log_space_longs", "log_bytes", "log_events", "log_bytes_per_1k_events",
		"solve_ms", "solve_components", "solve_largest_component",
		"replay_ms", "replay_ok",
	} {
		if _, ok := rawRpt.Workloads[0][key]; !ok {
			t.Errorf("artifact rows missing required key %q", key)
		}
	}
}
