// Command lightrr is the Light record/replay front end for MiniJ programs:
// it mirrors the paper's transformer/recorder/replayer pipeline
// (Section 5.1) as a single CLI.
//
// Usage:
//
//	lightrr run prog.mj                  # native run
//	lightrr record -o run.lightlog prog.mj
//	lightrr solve run.lightlog           # offline schedule computation only
//	lightrr inspect run.lightlog         # human-readable log dump
//	lightrr replay -log run.lightlog prog.mj
//	lightrr roundtrip -tool leap prog.mj # record+replay under any tool
//	lightrr disasm prog.mj               # show the compiled TAC
//	lightrr analyze prog.mj              # shared/lockset/race report
//
// Common flags: -seed N, -sleep-unit NS, -basic (disable O1), -no-o2,
// -solvejobs N (schedule-solve workers; 0 = GOMAXPROCS; DESIGN.md §4d),
// -solvecache=false (disable the component schedule cache),
// -solvecache-dir DIR (persist solved schedules across processes),
// -tool light|leap|stride|clap|chimera (roundtrip only).
//
// Observability: -metrics-addr HOST:PORT serves the live recorder/solver/
// replayer counters at /metrics (Prometheus text format) for the duration
// of the run; -flight N enables the per-thread flight recorder (bounded
// event rings, DESIGN.md §7) and -flight-trace PATH exports it, with the
// phase spans (record → encode → build → propagate → partition → solve →
// topo → replay), as Chrome trace JSON viewable in Perfetto; -forensics
// DIR writes a structured divergence report (forensics.json +
// forensics.txt) when a replay diverges or stalls. See DESIGN.md §7 for
// the metric reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/baseline/chimera"
	"repro/internal/baseline/clap"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/stride"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "run seed")
	sleepUnit := fs.Int64("sleep-unit", 1000, "nanoseconds per sleep(1) tick")
	out := fs.String("o", "run.lightlog", "output log path (record)")
	logPath := fs.String("log", "run.lightlog", "input log path (replay)")
	basic := fs.Bool("basic", false, "disable the O1 sequence reduction")
	noO2 := fs.Bool("no-o2", false, "disable the lock-subsumption instrumentation reduction")
	tool := fs.String("tool", "light", "roundtrip tool: light, leap, stride, clap, chimera")
	solveJobs := fs.Int("solvejobs", 0, "workers for the partitioned schedule solve (0 = GOMAXPROCS)")
	solveCache := fs.Bool("solvecache", true, "reuse cached component schedules across solves")
	solveCacheDir := fs.String("solvecache-dir", "", "persist solved schedules to this directory, hydrated on startup (empty = in-memory only)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus metrics at this address under /metrics")
	flightCap := fs.Int("flight", 0, "enable the flight recorder with this per-thread ring capacity (0 = off)")
	flightTrace := fs.String("flight-trace", "", "write the flight recording as Chrome trace JSON to this file on exit (implies -flight)")
	forensicsDir := fs.String("forensics", "", "on replay divergence, write forensics.json and forensics.txt into this directory")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	light.DefaultSolveJobs = *solveJobs
	light.DefaultSolveCache = *solveCache
	if *solveCacheDir != "" {
		if _, err := light.SetSolveCacheDir(*solveCacheDir, 0); err != nil {
			// A quarantined cache is a warning: the store reopened empty.
			fmt.Fprintln(os.Stderr, "lightrr:", err)
		}
	}

	if *metricsAddr != "" {
		addr, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics at http://%s/metrics\n", addr)
	}
	if *flightTrace != "" && *flightCap == 0 {
		*flightCap = flight.DefaultCapacity
	}
	if *flightCap > 0 {
		flight.SetCapacity(*flightCap)
		flight.Enable()
		// Phase spans share the Chrome export's pipeline track.
		obs.EnableTracing()
	}
	defer writeFlightTrace(*flightTrace)

	switch cmd {
	case "solve":
		args := fs.Args()
		path := *logPath
		if len(args) == 1 {
			path = args[0]
		}
		solve(path)
		return
	case "inspect":
		args := fs.Args()
		path := *logPath
		if len(args) == 1 {
			path = args[0]
		}
		trace.Dump(os.Stdout, readLog(path))
		return
	case "run", "record", "replay", "roundtrip", "disasm", "analyze":
	default:
		usage()
	}

	if fs.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "lightrr %s: expected exactly one program file\n", cmd)
		os.Exit(2)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := compiler.CompileSource(string(src))
	if err != nil {
		fatal(err)
	}
	an := analysis.Analyze(prog)
	mask := an.InstrumentMask(!*noO2)
	opts := light.Options{O1: !*basic}

	switch cmd {
	case "run":
		res := vm.Run(vm.Config{Prog: prog, Seed: *seed, SleepUnit: *sleepUnit, Instrument: mask})
		report(res)

	case "disasm":
		fmt.Print(compiler.DisasmProgram(prog))

	case "analyze":
		printAnalysis(prog, an)

	case "record":
		rec := light.Record(prog, opts, light.RunConfig{Seed: *seed, SleepUnit: *sleepUnit, Instrument: mask})
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.Encode(f, rec.Log); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d deps, %d ranges, %d locations (%d long-integers) in %s -> %s\n",
			len(rec.Log.Deps), len(rec.Log.Ranges), rec.Log.NumLocs, rec.Log.SpaceLongs,
			rec.Elapsed.Round(1000), *out)
		report(rec.Result)

	case "roundtrip":
		roundtrip(prog, an, *tool, *seed, *sleepUnit, opts, mask)

	case "replay":
		log := readLog(*logPath)
		rep, err := light.Replay(prog, log, light.RunConfig{Instrument: mask})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("schedule: %d vars, %d disjunctions (%d preprocessed away), solve %s, replay %s\n",
			rep.Schedule.Stats.IntVars, rep.Schedule.Stats.Disjunctions,
			rep.Schedule.Stats.Resolved, rep.SolveTime.Round(1000), rep.ReplayTime.Round(1000))
		if rep.Diverged {
			fmt.Printf("DIVERGED: %s\n", rep.Reason)
			writeForensics(*forensicsDir, rep.Forensics)
		}
		if light.Reproduced(log, rep.Result) {
			fmt.Println("recorded behavior reproduced (Definition 3.3 correlation holds)")
		} else {
			fmt.Println("recorded behavior NOT reproduced")
		}
		report(rep.Result)
	}
}

func solve(path string) {
	log := readLog(path)
	sched, err := light.ComputeSchedule(log)
	if err != nil {
		fatal(err)
	}
	st := sched.Stats
	fmt.Printf("log: %d deps, %d ranges, %d threads\n", len(log.Deps), len(log.Ranges), len(log.Threads))
	fmt.Printf("constraints: %d order variables, %d conjunctive, %d disjunctions (%d resolved by propagation)\n",
		st.IntVars, st.Conjunctive, st.Disjunctions, st.Resolved)
	fmt.Printf("components: %d independent (largest %d vars), %d fastpath / %d CDCL (rate %.2f)\n",
		st.Components, st.LargestComponent, st.FastpathComponents,
		st.Components-st.FastpathComponents, st.FastpathRate())
	fmt.Printf("cache: %d component hits, %d misses\n", st.CacheHits, st.CacheMisses)
	fmt.Printf("solver: %d decisions, %d conflicts, %d propagations, %d seeded literals\n",
		st.Solver.Decisions, st.Solver.Conflicts, st.Solver.Propagations, st.Solver.Seeded)
	fmt.Printf("schedule: %d gated accesses\n", len(sched.Order))
}

func readLog(path string) *trace.Log {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	log, err := trace.Decode(f)
	if err != nil {
		fatal(err)
	}
	return log
}

func report(res *vm.Result) {
	paths := make([]string, 0, len(res.Threads))
	for p := range res.Threads {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		tr := res.Threads[p]
		for _, line := range tr.Output {
			fmt.Printf("[%s] %s\n", p, line)
		}
		if tr.Err != nil {
			fmt.Printf("[%s] !! %v\n", p, tr.Err)
		}
	}
}

func printAnalysis(prog *compiler.Program, an *analysis.Result) {
	fmt.Printf("entries: %d thread contexts\n", len(an.Entries))
	shared := 0
	for _, s := range an.SharedSites {
		if s {
			shared++
		}
	}
	elided := 0
	for i, on := range an.InstrumentMask(true) {
		if an.SharedSites[i] && !on {
			elided++
		}
	}
	fmt.Printf("sites: %d total, %d shared, %d elided by O2\n", len(prog.Sites), shared, elided)
	fmt.Printf("shared fields: %d, shared globals: %d\n", len(an.SharedFields), len(an.SharedGlobals))
	for f, l := range an.GuardedFields {
		fmt.Printf("O2: field %s consistently guarded by global %s\n", prog.FieldNames[f], prog.Globals[l])
	}
	for g, l := range an.GuardedGlobals {
		fmt.Printf("O2: global %s consistently guarded by global %s\n", prog.Globals[g], prog.Globals[l])
	}
	for _, race := range an.Races {
		what := "container"
		if race.Field >= 0 {
			what = "field " + prog.FieldNames[race.Field]
		} else if race.Field != analysis.ContainerRaceKey {
			what = "global " + prog.Globals[^race.Field]
		}
		fmt.Printf("race: %s between sites %d and %d\n", what, race.Site1, race.Site2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lightrr run|record|solve|inspect|replay|roundtrip|disasm|analyze [flags] prog.mj")
	os.Exit(2)
}

// writeFlightTrace drains the flight rings (plus the phase spans) into a
// Chrome trace_event JSON file for Perfetto, when -flight-trace was given.
func writeFlightTrace(path string) {
	if path == "" {
		return
	}
	snaps := flight.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := flight.WriteChrome(f, snaps, obs.Spans()); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "flight recording (%d tracks) written to %s\n", len(snaps), path)
}

// writeForensics dumps a diverged replay's forensic report as JSON and text
// under dir, when -forensics was given.
func writeForensics(dir string, rep *light.ForensicReport) {
	if dir == "" || rep == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	jf, err := os.Create(filepath.Join(dir, "forensics.json"))
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteJSON(jf); err != nil {
		jf.Close()
		fatal(err)
	}
	if err := jf.Close(); err != nil {
		fatal(err)
	}
	tf, err := os.Create(filepath.Join(dir, "forensics.txt"))
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteText(tf); err != nil {
		tf.Close()
		fatal(err)
	}
	if err := tf.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "forensic report written to %s\n", dir)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lightrr:", err)
	os.Exit(1)
}

// roundtrip records and immediately replays the program under the chosen
// tool, reporting whether per-thread behavior was reproduced.
func roundtrip(prog *compiler.Program, an *analysis.Result, tool string, seed uint64, sleepUnit int64, opts light.Options, mask []bool) {
	same := func(a, b *vm.Result) bool {
		if len(a.Threads) != len(b.Threads) {
			return false
		}
		for p, x := range a.Threads {
			y, ok := b.Threads[p]
			if !ok || len(x.Output) != len(y.Output) {
				return false
			}
			for i := range x.Output {
				if x.Output[i] != y.Output[i] {
					return false
				}
			}
			if (x.Err == nil) != (y.Err == nil) {
				return false
			}
		}
		return true
	}
	switch tool {
	case "light":
		rec := light.Record(prog, opts, light.RunConfig{Seed: seed, SleepUnit: sleepUnit, Instrument: mask})
		rep, err := light.Replay(prog, rec.Log, light.RunConfig{Instrument: mask})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("light: %d deps, %d ranges, %d longs; solve %s, replay %s\n",
			len(rec.Log.Deps), len(rec.Log.Ranges), rec.Log.SpaceLongs,
			rep.SolveTime.Round(1000), rep.ReplayTime.Round(1000))
		fmt.Printf("reproduced: %v\n", !rep.Diverged && same(rec.Result, rep.Result))
	case "leap":
		logc, recRes, d := leap.Record(prog, seed, mask, sleepUnit)
		repRes, failed, reason := leap.Replay(prog, logc, mask)
		fmt.Printf("leap: %d longs recorded in %s\n", logc.SpaceLongs, d.Round(1000))
		if failed {
			fmt.Printf("replay failed: %s\n", reason)
			return
		}
		fmt.Printf("reproduced: %v\n", same(recRes, repRes))
	case "stride":
		logc, recRes, d := stride.Record(prog, seed, mask, sleepUnit)
		repRes, failed, reason, err := stride.Replay(prog, logc, mask)
		fmt.Printf("stride: %d longs recorded in %s\n", logc.SpaceLongs, d.Round(1000))
		if err != nil {
			fatal(err)
		}
		if failed {
			fmt.Printf("replay failed: %s\n", reason)
			return
		}
		fmt.Printf("reproduced: %v\n", same(recRes, repRes))
	case "clap":
		logc, _, d := clap.Record(prog, seed, mask, sleepUnit)
		out := clap.Reproduce(prog, logc, mask)
		fmt.Printf("clap: %d longs recorded in %s\n", logc.SpaceLongs, d.Round(1000))
		switch {
		case out.Unsupported != nil:
			fmt.Printf("unsupported: %v\n", out.Unsupported)
		case out.Err != nil:
			fmt.Printf("failed: %v\n", out.Err)
		default:
			fmt.Printf("matched %d dependences; reproduced: %v\n", out.Deps, out.Reproduced)
		}
	case "chimera":
		patch := chimera.BuildPatch(prog, an)
		logc, recRes, d := chimera.Record(prog, patch, seed, mask, sleepUnit)
		repRes, failed, reason := chimera.Replay(prog, patch, logc, mask)
		fmt.Printf("chimera: %d patch locks, %d longs recorded in %s\n", patch.NumLocks, logc.SpaceLongs, d.Round(1000))
		if failed {
			fmt.Printf("replay failed: %s\n", reason)
			return
		}
		fmt.Printf("reproduced: %v\n", same(recRes, repRes))
	default:
		fatal(fmt.Errorf("unknown tool %q", tool))
	}
}
