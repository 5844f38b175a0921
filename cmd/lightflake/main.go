// Command lightflake is the flake-hunter front end: it runs workloads
// thousands of times under seeded schedule perturbation with the Light
// recorder always on, dedups the failures by forensic signature, shrinks
// each distinct failure's perturbation trace to a minimal reproducer, and
// writes a ranked report plus per-cluster artifact bundles that replay
// deterministically through `lightrr replay`.
//
// Usage:
//
//	lightflake [flags]                 # hunt the built-in flaky family
//	lightflake -workload a,b [flags]   # hunt specific workloads by name
//	lightflake -src prog.mj [flags]    # hunt a MiniJ source file
//
// Exit status: 0 when the campaign is clean, 1 when failures were found,
// 2 on usage or compile errors. With -expect N the polarity flips for CI
// gates: exit 0 iff at least N distinct failure signatures were caught with
// replay-verified minimal reproducers, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/flake"
	"repro/internal/light"
	"repro/internal/workloads"
)

func main() {
	fs := flag.NewFlagSet("lightflake", flag.ExitOnError)
	workloadList := fs.String("workload", "", "comma-separated workload names (default: the flaky family)")
	src := fs.String("src", "", "hunt a MiniJ source file instead of named workloads")
	runs := fs.Int("runs", 1000, "perturbed record runs per workload")
	seed := fs.Uint64("seed", 1, "first perturbation seed (run i uses seed+i)")
	intensity := fs.Int("intensity", 30, "perturbation intensity, percent of scheduling points (1-100)")
	jobs := fs.Int("jobs", 4, "concurrent campaign workers")
	shrinkBudget := fs.Int("shrink-budget", 64, "delta-debugging candidate evaluations per signature")
	outDir := fs.String("out", "", "directory for report.json, report.txt and per-cluster bundles")
	expect := fs.Int("expect", 0, "CI gate: require at least N replay-verified signatures (flips exit polarity)")
	basic := fs.Bool("basic", false, "use the V_basic recorder instead of V_O1")
	verbose := fs.Bool("v", false, "log campaign progress to stderr")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lightflake [-workload names | -src prog.mj] [flags]")
		os.Exit(2)
	}

	targets, err := resolveTargets(*workloadList, *src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lightflake: %v\n", err)
		os.Exit(2)
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "lightflake: "+format+"\n", args...)
		}
	}

	var reports []*flake.WorkloadReport
	for _, w := range targets {
		cfg := flake.Config{
			Workload:     w,
			Runs:         *runs,
			StartSeed:    *seed,
			Intensity:    *intensity,
			Jobs:         *jobs,
			ShrinkBudget: *shrinkBudget,
			Opts:         light.Options{O1: !*basic},
			Logf:         logf,
		}
		if *outDir != "" {
			cfg.ArtifactsDir = filepath.Join(*outDir, w.Name)
		}
		wr, err := flake.Hunt(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lightflake: %v\n", err)
			os.Exit(2)
		}
		reports = append(reports, wr)
	}

	report := flake.NewReport(reports)
	if err := report.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "lightflake: %v\n", err)
		os.Exit(2)
	}
	if *outDir != "" {
		if err := writeReports(*outDir, report); err != nil {
			fmt.Fprintf(os.Stderr, "lightflake: %v\n", err)
			os.Exit(2)
		}
	}

	verified := 0
	for _, wr := range report.Workloads {
		for _, c := range wr.Clusters {
			if c.ReplayVerified {
				verified++
			}
		}
	}
	if *expect > 0 {
		if verified < *expect {
			fmt.Fprintf(os.Stderr, "lightflake: expected >=%d replay-verified signature(s), got %d\n",
				*expect, verified)
			os.Exit(1)
		}
		fmt.Printf("\nexpectation met: %d replay-verified signature(s) (>= %d)\n", verified, *expect)
		return
	}
	if report.TotalFailures > 0 {
		os.Exit(1)
	}
}

// resolveTargets picks the workloads to hunt: an explicit source file, a
// comma-separated name list, or the built-in flaky family.
func resolveTargets(names, src string) ([]*workloads.Workload, error) {
	if src != "" {
		if names != "" {
			return nil, fmt.Errorf("-workload and -src are mutually exclusive")
		}
		b, err := os.ReadFile(src)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(src), filepath.Ext(src))
		return []*workloads.Workload{{
			Name:        name,
			Suite:       "file",
			Description: src,
			Source:      string(b),
		}}, nil
	}
	if names == "" {
		return workloads.Flaky(), nil
	}
	var ws []*workloads.Workload
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w := workloads.ByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("no workloads selected")
	}
	return ws, nil
}

// writeReports persists report.json and report.txt under dir.
func writeReports(dir string, r *flake.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	if err := r.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, "report.txt"))
	if err != nil {
		return err
	}
	if err := r.WriteText(tf); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}
