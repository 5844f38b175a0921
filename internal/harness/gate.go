package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// ReadReportFile loads a bench trajectory file (BENCH_light.json).
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rpt Report
	if err := json.Unmarshal(data, &rpt); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rpt, nil
}

// CompareGate checks a freshly measured sweep against the committed baseline:
// every multicore proc level present in both reports must keep its average
// record overhead within threshold× the baseline's (1.0 = no regression at
// all; the default leaves headroom for timer noise). A proc level in the
// baseline but missing from the current run fails — a gate that silently
// skips levels is no gate. Returns nil when the gate passes.
func CompareGate(baseline, current *Report, threshold float64) error {
	if threshold <= 0 {
		return fmt.Errorf("bench gate: threshold %g, want > 0", threshold)
	}
	if len(baseline.Aggregate.Multicore) == 0 {
		return fmt.Errorf("bench gate: baseline has no multicore summaries (schema %q; regenerate with lightbench -report)", baseline.Schema)
	}
	cur := map[int]MulticoreSummary{}
	for _, m := range current.Aggregate.Multicore {
		cur[m.GOMAXPROCS] = m
	}
	var failures []string
	for _, base := range baseline.Aggregate.Multicore {
		now, ok := cur[base.GOMAXPROCS]
		if !ok {
			failures = append(failures, fmt.Sprintf("proc level %d in baseline but not measured", base.GOMAXPROCS))
			continue
		}
		limit := base.OverheadAvg * threshold
		if now.OverheadAvg > limit {
			failures = append(failures, fmt.Sprintf(
				"@%d procs: record overhead avg %.3fx exceeds %.3fx (baseline %.3fx × threshold %.2f)",
				base.GOMAXPROCS, now.OverheadAvg, limit, base.OverheadAvg, threshold))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench gate FAILED:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// FormatGate renders the per-level gate comparison table (printed on both
// pass and fail so CI logs always show the measured numbers).
func FormatGate(baseline, current *Report, threshold float64) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("bench gate: threshold %.2f× vs baseline (%s)\n", threshold, baseline.Schema))
	sb.WriteString(fmt.Sprintf("%6s %12s %12s %12s\n", "procs", "baseline", "current", "limit"))
	cur := map[int]MulticoreSummary{}
	for _, m := range current.Aggregate.Multicore {
		cur[m.GOMAXPROCS] = m
	}
	for _, base := range baseline.Aggregate.Multicore {
		now, ok := cur[base.GOMAXPROCS]
		curStr := "missing"
		if ok {
			curStr = fmt.Sprintf("%.3fx", now.OverheadAvg)
		}
		sb.WriteString(fmt.Sprintf("%6d %11.3fx %12s %11.3fx\n",
			base.GOMAXPROCS, base.OverheadAvg, curStr, base.OverheadAvg*threshold))
	}
	return sb.String()
}
