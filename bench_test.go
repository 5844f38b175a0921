// Package repro's root benchmarks regenerate every figure and table of the
// paper's evaluation as testing.B benchmarks (complementing the printable
// forms in cmd/lightbench):
//
//	BenchmarkFig4Record    — recording wall time per benchmark per tool
//	BenchmarkFig5Space     — recorded Long-integer units (reported metric)
//	BenchmarkFig6Bugs      — trigger + replay latency per Figure 6 bug
//	BenchmarkFig7Variants  — V_basic / V_O1 / V_both recording cost
//	BenchmarkTable1        — per-bug offline solve and replay time
//	BenchmarkReplay        — enforced re-execution of a pre-solved schedule
//	BenchmarkSolverIDL     — the underlying DPLL(T) difference-logic solver
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/stride"
	"repro/internal/bugs"
	"repro/internal/compiler"
	"repro/internal/light"
	"repro/internal/smt"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fig4Selection keeps the default bench run affordable: one representative
// per suite. Run with -bench 'Fig4Record/all' for the full 24.
var fig4Selection = []string{"jgf-crypt", "stamp-vacation", "srv-cache4j", "dacapo-h2"}

type compiled struct {
	prog    *compiler.Program
	maskO2  []bool
	maskAll []bool
}

func compileWorkload(b *testing.B, name string) compiled {
	b.Helper()
	w := workloads.ByName(name)
	if w == nil {
		b.Fatalf("workload %s missing", name)
	}
	prog, err := w.Compile()
	if err != nil {
		b.Fatal(err)
	}
	an := analysis.Analyze(prog)
	return compiled{prog: prog, maskO2: an.InstrumentMask(true), maskAll: an.InstrumentMask(false)}
}

func benchRecordTools(b *testing.B, names []string) {
	for _, name := range names {
		c := compileWorkload(b, name)
		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm.Run(vm.Config{Prog: c.prog, Seed: uint64(i), Instrument: c.maskAll})
			}
		})
		b.Run(name+"/light", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := light.NewRecorder(light.Options{O1: true})
				res := vm.Run(vm.Config{Prog: c.prog, Hooks: rec, Seed: uint64(i), Instrument: c.maskO2})
				rec.Finish(res, uint64(i))
			}
		})
		b.Run(name+"/leap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := leap.NewRecorder()
				res := vm.Run(vm.Config{Prog: c.prog, Hooks: rec, Seed: uint64(i), Instrument: c.maskAll})
				rec.Finish(res, uint64(i))
			}
		})
		b.Run(name+"/stride", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := stride.NewRecorder()
				res := vm.Run(vm.Config{Prog: c.prog, Hooks: rec, Seed: uint64(i), Instrument: c.maskAll})
				rec.Finish(res, uint64(i))
			}
		})
	}
}

// BenchmarkFig4Record measures recording wall time (Figure 4) for a
// representative workload per suite.
func BenchmarkFig4Record(b *testing.B) {
	benchRecordTools(b, fig4Selection)
}

// BenchmarkFig4RecordAll covers all 24 benchmarks (slow; Figure 4 in full).
func BenchmarkFig4RecordAll(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	benchRecordTools(b, names)
}

// BenchmarkFig5Space reports the recorded Long-integer units per tool
// (Figure 5) as custom metrics.
func BenchmarkFig5Space(b *testing.B) {
	for _, name := range fig4Selection {
		c := compileWorkload(b, name)
		b.Run(name, func(b *testing.B) {
			var lightL, leapL, strideL int64
			for i := 0; i < b.N; i++ {
				lr := light.NewRecorder(light.Options{O1: true})
				res := vm.Run(vm.Config{Prog: c.prog, Hooks: lr, Seed: 1, Instrument: c.maskO2})
				lightL = lr.Finish(res, 1).SpaceLongs

				pr := leap.NewRecorder()
				res = vm.Run(vm.Config{Prog: c.prog, Hooks: pr, Seed: 1, Instrument: c.maskAll})
				leapL = pr.Finish(res, 1).SpaceLongs

				sr := stride.NewRecorder()
				res = vm.Run(vm.Config{Prog: c.prog, Hooks: sr, Seed: 1, Instrument: c.maskAll})
				strideL = sr.Finish(res, 1).SpaceLongs
			}
			b.ReportMetric(float64(lightL), "light-longs")
			b.ReportMetric(float64(leapL), "leap-longs")
			b.ReportMetric(float64(strideL), "stride-longs")
			if leapL > 0 {
				b.ReportMetric(100*float64(lightL)/float64(leapL), "light/leap-%")
			}
		})
	}
}

// BenchmarkFig6Bugs triggers each Figure 6 bug once per iteration and
// replays it, measuring the end-to-end reproduce latency.
func BenchmarkFig6Bugs(b *testing.B) {
	for _, bug := range bugs.All() {
		prog, err := bug.Compile()
		if err != nil {
			b.Fatal(err)
		}
		// Find a triggering seed once, outside the timed loop.
		seed := uint64(0)
		found := false
		for ; seed < uint64(bug.MaxSeeds); seed++ {
			rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: seed, SleepUnit: bug.SleepUnit})
			if len(rec.Log.Bugs) > 0 {
				found = true
				break
			}
		}
		if !found {
			b.Fatalf("%s: no triggering seed", bug.ID)
		}
		b.Run(bug.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: seed, SleepUnit: bug.SleepUnit})
				rep, err := light.Replay(prog, rec.Log, light.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if len(rec.Log.Bugs) > 0 && (rep.Diverged || !light.Reproduced(rec.Log, rep.Result)) {
					b.Fatalf("%s: not reproduced", bug.ID)
				}
			}
		})
	}
}

// BenchmarkFig7Variants measures the V_basic / V_O1 / V_both recording cost
// (Figure 7a; 7b's space numbers are reported as metrics).
func BenchmarkFig7Variants(b *testing.B) {
	for _, name := range fig4Selection {
		c := compileWorkload(b, name)
		variants := []struct {
			vn   string
			opts light.Options
			mask []bool
		}{
			{"basic", light.Options{}, c.maskAll},
			{"o1", light.Options{O1: true}, c.maskAll},
			{"both", light.Options{O1: true}, c.maskO2},
		}
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", name, v.vn), func(b *testing.B) {
				var space int64
				for i := 0; i < b.N; i++ {
					rec := light.NewRecorder(v.opts)
					res := vm.Run(vm.Config{Prog: c.prog, Hooks: rec, Seed: 1, Instrument: v.mask})
					space = rec.Finish(res, 1).SpaceLongs
				}
				b.ReportMetric(float64(space), "longs")
			})
		}
	}
}

// BenchmarkTable1 measures the offline schedule computation ("Solve") and
// enforced re-execution ("Replay") per bug, Table 1's two columns.
func BenchmarkTable1(b *testing.B) {
	for _, bug := range bugs.All() {
		prog, err := bug.Compile()
		if err != nil {
			b.Fatal(err)
		}
		var rec *light.RecordOutcome
		for seed := uint64(0); seed < uint64(bug.MaxSeeds); seed++ {
			r := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: seed, SleepUnit: bug.SleepUnit})
			if len(r.Log.Bugs) > 0 {
				rec = r
				break
			}
		}
		if rec == nil {
			b.Fatalf("%s: never triggered", bug.ID)
		}
		b.Run(bug.ID+"/solve", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := light.ComputeSchedule(rec.Log); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rec.Log.SpaceLongs), "space-longs")
		})
		b.Run(bug.ID+"/replay", func(b *testing.B) {
			sched, err := light.ComputeSchedule(rec.Log)
			if err != nil {
				b.Fatal(err)
			}
			_ = sched
			for i := 0; i < b.N; i++ {
				rep, err := light.Replay(prog, rec.Log, light.RunConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Diverged {
					b.Fatalf("diverged: %s", rep.Reason)
				}
			}
		})
	}
}

// BenchmarkSolverIDL exercises the DPLL(T) solver on schedule-shaped
// instances: chains with non-interference disjunctions.
func BenchmarkSolverIDL(b *testing.B) {
	for _, size := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("chain-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := smt.NewProblem()
				vars := make([]smt.IntVar, size)
				for j := range vars {
					vars[j] = p.IntVarNamed("")
				}
				for j := 0; j+1 < size; j++ {
					p.AssertLt(vars[j], vars[j+1])
				}
				// Non-interference-shaped disjunctions over distant pairs.
				for j := 0; j+10 < size; j += 7 {
					p.Assert(smt.Or(smt.Lt(vars[j+10], vars[j]), smt.Lt(vars[j+3], vars[j+5])))
				}
				if res := p.Solve(); res.Status != smt.Sat {
					b.Fatal("unsat")
				}
			}
		})
	}
}

// replicateLog tiles k disjoint copies of a recorded log into one larger log:
// copy j's threads and locations are offset so the copies share nothing. The
// result has at least k independent constraint components, making it an ideal
// workload for the partitioned solve.
func replicateLog(base *trace.Log, k int) *trace.Log {
	nThreads := int32(len(base.Threads))
	shift := func(tc trace.TC, j int32) trace.TC {
		if tc.IsInitial() {
			return tc
		}
		return trace.TC{Thread: tc.Thread + j*nThreads, Counter: tc.Counter}
	}
	out := &trace.Log{
		Tool:    base.Tool,
		Seed:    base.Seed,
		NumLocs: base.NumLocs * int32(k),
	}
	for j := int32(0); j < int32(k); j++ {
		for _, p := range base.Threads {
			out.Threads = append(out.Threads, fmt.Sprintf("%s#%d", p, j))
		}
		for _, d := range base.Deps {
			out.Deps = append(out.Deps, trace.Dep{
				Loc: d.Loc + j*base.NumLocs,
				W:   shift(d.W, j),
				R:   shift(d.R, j),
			})
		}
		for _, r := range base.Ranges {
			r.Loc += j * base.NumLocs
			r.Thread += j * nThreads
			r.W = shift(r.W, j)
			out.Ranges = append(out.Ranges, r)
		}
	}
	return out
}

// BenchmarkSolvePartitioned compares the serial (one worker) and parallel
// (GOMAXPROCS workers) partitioned schedule solves on a log with many
// independent components. The components and largest_component metrics show
// the available parallelism; the speedup materializes at GOMAXPROCS >= 2.
func BenchmarkSolvePartitioned(b *testing.B) {
	src := `
class C { field n; }
var c = null;
fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    c.n = c.n + 1;
    if (i % 4 == 0) { yield(); }
  }
}
fun main() {
  c = new C(); c.n = 0;
  var t1 = spawn bump(120);
  var t2 = spawn bump(120);
  var t3 = spawn bump(120);
  join t1; join t2; join t3;
  print(c.n);
}`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: 9})
	log := replicateLog(rec.Log, 8)
	for _, cfg := range []struct {
		name string
		jobs int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var st light.ScheduleStats
			for i := 0; i < b.N; i++ {
				sched, err := light.ComputeScheduleJobs(log, cfg.jobs)
				if err != nil {
					b.Fatal(err)
				}
				st = sched.Stats
			}
			b.ReportMetric(float64(st.Components), "components")
			b.ReportMetric(float64(st.LargestComponent), "largest_component")
		})
	}
}

// BenchmarkSolveScaling measures offline schedule computation against
// growing trace sizes (the Table 1 "Solve vs Space" correlation): the same
// contended workload recorded at increasing lengths.
func BenchmarkSolveScaling(b *testing.B) {
	for _, iters := range []int{20, 80, 320} {
		src := fmt.Sprintf(`
class C { field n; }
var c = null;
fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    c.n = c.n + 1;
    if (i %% 4 == 0) { yield(); }
  }
}
fun main() {
  c = new C(); c.n = 0;
  var t1 = spawn bump(%d);
  var t2 = spawn bump(%d);
  var t3 = spawn bump(%d);
  join t1; join t2; join t3;
  print(c.n);
}`, iters, iters, iters)
		prog, err := compiler.CompileSource(src)
		if err != nil {
			b.Fatal(err)
		}
		rec := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: 9})
		b.Run(fmt.Sprintf("iters-%d", iters), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched, err := light.ComputeSchedule(rec.Log)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(rec.Log.SpaceLongs), "space-longs")
					b.ReportMetric(float64(sched.Stats.Disjunctions), "disjunctions")
					b.ReportMetric(float64(sched.Stats.Resolved), "propagation_resolved")
				}
			}
		})
	}
}

// BenchmarkSolveFastpath measures cold-cache offline schedule synthesis
// (propagation fast path + CDCL(T) fallback, cache cleared every iteration)
// on committed recordings, so rows compare across commits: jgf-crypt and
// jgf-sor (many locations, few disjunctions), srv-proxy and par-handoff
// (the densest disjunction sets of the golden logs) (`make bench-solve`).
// Each solved schedule is then checked with CheckSchedule outside the timed
// region; check_ns and check_per_solve report the checker's cost per solve
// and its ratio to the solve time.
func BenchmarkSolveFastpath(b *testing.B) {
	for _, name := range []string{"jgf-crypt", "jgf-sor", "srv-proxy", "par-handoff"} {
		data, err := os.ReadFile(filepath.Join("internal", "light", "testdata", "golden", name+".lightlog"))
		if err != nil {
			b.Fatal(err)
		}
		log, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var st light.ScheduleStats
			var solve, check time.Duration
			for i := 0; i < b.N; i++ {
				light.ResetScheduleCache()
				t0 := time.Now()
				sched, err := light.ComputeScheduleJobs(log, runtime.GOMAXPROCS(0))
				if err != nil {
					b.Fatal(err)
				}
				solve += time.Since(t0)
				st = sched.Stats
				b.StopTimer()
				t0 = time.Now()
				if err := light.CheckSchedule(log, sched); err != nil {
					b.Fatal(err)
				}
				check += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(float64(check.Nanoseconds())/float64(b.N), "check_ns")
			b.ReportMetric(check.Seconds()/solve.Seconds(), "check_per_solve")
			b.ReportMetric(float64(st.Components), "components")
			b.ReportMetric(st.FastpathRate(), "fastpath_rate")
			b.ReportMetric(float64(st.Resolved), "propagation_resolved")
		})
	}
}

// BenchmarkReplay measures enforced re-execution alone: each row records
// once, solves once, and replays the same schedule every iteration
// (`make bench-replay`). par-hotfield contends one location from every
// thread; jgf-crypt's threads sweep disjoint slices of one array.
func BenchmarkReplay(b *testing.B) {
	for _, name := range []string{"par-hotfield", "jgf-crypt"} {
		c := compileWorkload(b, name)
		cfg := light.RunConfig{Seed: 11, Instrument: c.maskO2}
		rec := light.Record(c.prog, light.Options{O1: true}, cfg)
		sched, err := light.ComputeSchedule(rec.Log)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := light.ReplayScheduled(c.prog, rec.Log, cfg, sched, 0)
				if err != nil {
					b.Fatal(err)
				}
				if out.Diverged {
					b.Fatalf("diverged: %s", out.Reason)
				}
			}
			b.ReportMetric(float64(len(sched.Order)), "gated_accesses")
		})
	}
}
