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
//	BenchmarkReplayEpoch   — on-demand verification of an 8-run epoch
//	BenchmarkCodec         — log bytes per event and codec speed, LIGHTLOG1 vs 2
//	BenchmarkSolverIDL     — the underlying DPLL(T) difference-logic solver
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/baseline/leap"
	"repro/internal/baseline/stride"
	"repro/internal/bugs"
	"repro/internal/compiler"
	"repro/internal/epoch"
	"repro/internal/light"
	"repro/internal/obs"
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
					vars[j] = p.NewIntVar()
				}
				for j := 0; j+1 < size; j++ {
					p.AssertLt(vars[j], vars[j+1])
				}
				// Non-interference-shaped disjunctions over distant pairs.
				for j := 0; j+10 < size; j += 7 {
					p.Assert(smt.Lt(vars[j+10], vars[j]), smt.Lt(vars[j+3], vars[j+5]))
				}
				if res := p.Solve(); res.Status != smt.Sat {
					b.Fatal("unsat")
				}
			}
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

// BenchmarkSolveFastpath measures offline schedule synthesis
// (propagation fast path, per-location construction, CDCL(T) fallback) on
// committed recordings, so rows compare across commits: jgf-crypt and
// jgf-sor (many locations, few disjunctions), srv-proxy and par-handoff
// (the densest disjunction sets of the golden logs), stamp-labyrinth,
// srv-tomcat and par-hotfield (the highest check-to-solve ratios), and
// fuzz-cdcl-1loc and fuzz-cdcl-2loc (residual disjunctions on one and on
// two locations, decided by construction and checked by the final sort)
// (`make bench-solve`). Each solved schedule is then checked with
// CheckSchedule outside the timed region. A collection runs outside the
// timers before every solve and every check, so neither pays for the
// other's garbage; check_ns and check_per_solve are the medians over the
// iterations of the check time and of its ratio to the solve time.
func BenchmarkSolveFastpath(b *testing.B) {
	for _, name := range []string{"jgf-crypt", "jgf-sor", "srv-proxy", "par-handoff", "stamp-labyrinth", "srv-tomcat", "par-hotfield", "fuzz-cdcl-1loc", "fuzz-cdcl-2loc"} {
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
			checks := make([]float64, b.N)
			ratios := make([]float64, b.N)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				t0 := time.Now()
				sched, err := light.ComputeSchedule(log)
				if err != nil {
					b.Fatal(err)
				}
				solve := time.Since(t0)
				b.StopTimer()
				st = sched.Stats
				runtime.GC()
				t0 = time.Now()
				if err := light.CheckSchedule(log, sched); err != nil {
					b.Fatal(err)
				}
				check := time.Since(t0)
				b.StartTimer()
				checks[i] = float64(check.Nanoseconds())
				ratios[i] = check.Seconds() / solve.Seconds()
			}
			b.ReportMetric(median(checks), "check_ns")
			b.ReportMetric(median(ratios), "check_per_solve")
			b.ReportMetric(float64(st.Components), "components")
			b.ReportMetric(st.FastpathRate(), "fastpath_rate")
			b.ReportMetric(float64(st.Resolved), "propagation_resolved")
		})
	}
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// BenchmarkReplay measures enforced re-execution: each row records once,
// solves once, and replays the same order every iteration through a fresh
// Schedule, so every iteration also builds the gate table from the log
// (`make bench-replay`). par-hotfield contends one location from every
// thread; par-handoff hands items between threads through monitor queues;
// jgf-crypt's threads sweep disjoint slices of one array. Metrics are on,
// so parks/op reports the gated waits that used up their yields and
// parked (light_replay_parks_total).
func BenchmarkReplay(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	for _, name := range []string{"par-hotfield", "par-handoff", "jgf-crypt"} {
		c := compileWorkload(b, name)
		cfg := light.RunConfig{Seed: 11, Instrument: c.maskO2}
		rec := light.Record(c.prog, light.Options{O1: true}, cfg)
		sched, err := light.ComputeSchedule(rec.Log)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			before := obs.TakeSnapshot()
			for i := 0; i < b.N; i++ {
				// A fresh schedule per iteration: its gate table is built,
				// and timed, on every replay.
				fresh := &light.Schedule{Log: sched.Log, Order: sched.Order, Stats: sched.Stats}
				out, err := light.ReplayScheduled(c.prog, rec.Log, cfg, fresh, 0)
				if err != nil {
					b.Fatal(err)
				}
				if out.Diverged {
					b.Fatalf("diverged: %s", out.Reason)
				}
			}
			parks := obs.TakeSnapshot().Delta(before).Counter("light_replay_parks_total")
			b.ReportMetric(float64(len(sched.Order)), "gated_accesses")
			b.ReportMetric(float64(parks)/float64(b.N), "parks/op")
		})
	}
}

// serviceSrc is an always-on-shaped service: two dispatchers each hand 128
// requests through their own bounded queue of 8 to a worker, and the
// workers update a lock-guarded request table and a racy hit counter.
const serviceSrc = `
class Requests { field served; field bytes; }
var requests = null;
var hits = 0;
var lock0 = null;
var lock1 = null;
var tlock = null;
var buf0 = null;
var buf1 = null;
var head0 = 0;
var tail0 = 0;
var head1 = 0;
var tail1 = 0;
var done = 0;

fun produce0(n, salt) {
  for (var i = 0; i < n; i = i + 1) {
    var item = (i * 17 + salt) % 997 + 1;
    sync (lock0) {
      while (tail0 - head0 >= 8) { wait(lock0); }
      buf0[tail0 % 8] = item;
      tail0 = tail0 + 1;
      notify(lock0);
    }
  }
}

fun produce1(n, salt) {
  for (var i = 0; i < n; i = i + 1) {
    var item = (i * 17 + salt) % 997 + 1;
    sync (lock1) {
      while (tail1 - head1 >= 8) { wait(lock1); }
      buf1[tail1 % 8] = item;
      tail1 = tail1 + 1;
      notify(lock1);
    }
  }
}

fun serve(item) {
  sync (tlock) {
    requests.served = requests.served + 1;
    requests.bytes = (requests.bytes + item) % 65537;
  }
  hits = hits + 1;
  for (var r = 0; r < 4; r = r + 1) { item = (item * 31 + r) % 65537; }
  return item;
}

fun consume0(n) {
  var acc = 0;
  for (var got = 0; got < n; got = got + 1) {
    var item = 0;
    sync (lock0) {
      while (head0 >= tail0) { wait(lock0); }
      item = buf0[head0 % 8];
      head0 = head0 + 1;
      notify(lock0);
    }
    acc = (acc + serve(item)) % 1000003;
  }
  sync (tlock) { done = (done + acc) % 1000003; }
}

fun consume1(n) {
  var acc = 0;
  for (var got = 0; got < n; got = got + 1) {
    var item = 0;
    sync (lock1) {
      while (head1 >= tail1) { wait(lock1); }
      item = buf1[head1 % 8];
      head1 = head1 + 1;
      notify(lock1);
    }
    acc = (acc + serve(item)) % 1000003;
  }
  sync (tlock) { done = (done + acc) % 1000003; }
}

fun main() {
  lock0 = newmap();
  lock1 = newmap();
  tlock = newmap();
  buf0 = newarr(8);
  buf1 = newarr(8);
  for (var i = 0; i < 8; i = i + 1) { buf0[i] = 0; buf1[i] = 0; }
  sync (tlock) { requests = new Requests(); requests.served = 0; requests.bytes = 0; }
  var ts = newarr(4);
  ts[0] = spawn produce0(128, 101);
  ts[1] = spawn consume0(128);
  ts[2] = spawn produce1(128, 307);
  ts[3] = spawn consume1(128);
  for (var t = 0; t < 4; t = t + 1) { join ts[t]; }
  var sum = 0;
  sync (tlock) { sum = (done + requests.served + requests.bytes) % 1000003; }
  sum = (sum * 31 + hits) % 1000003;
  print(sum);
}
`

// BenchmarkReplayEpoch measures on-demand epoch verification, the work
// behind lightd's /epochs/{id}/replay: it seals one 8-run epoch of an
// always-on-shaped service into a temporary store and replays it whole
// with epoch.ReplayEpoch, which verifies the runs concurrently on up to
// GOMAXPROCS cores (`make bench-replay`). The cold row empties the
// schedule cache before every iteration, so each run is solved; the
// presolved row caches every run's schedule first, as a session's
// background pre-solve does, so each run pays a cache hit (a hash and
// CheckSchedule) instead. ms/epoch is the wall time of one ReplayEpoch;
// solve_ms/run and replay_ms/run are the runs' own mean times, measured
// while they share the cores.
func BenchmarkReplayEpoch(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	store, _, err := epoch.Open(epoch.StoreOptions{Dir: b.TempDir(), RetainEpochs: -1, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	const runs = 8
	sess, err := epoch.StartSession(store, epoch.SessionConfig{Source: serviceSrc, SeedBase: 1, EpochRuns: runs, MaxRuns: runs})
	if err != nil {
		b.Fatal(err)
	}
	sess.Wait()
	if st := sess.Status(); st.Err != "" {
		b.Fatal(st.Err)
	}
	meta, err := store.Newest()
	if err != nil {
		b.Fatal(err)
	}
	data, err := store.Load(meta.ID)
	if err != nil {
		b.Fatal(err)
	}
	if len(data.Runs) != runs {
		b.Fatalf("sealed %d runs, want %d", len(data.Runs), runs)
	}
	for _, presolved := range []bool{false, true} {
		name := "cold"
		if presolved {
			name = "presolved"
		}
		b.Run(name, func(b *testing.B) {
			light.ResetScheduleCache()
			if presolved {
				for _, rr := range data.Runs {
					if _, _, err := light.ComputeScheduleCached(rr.Log); err != nil {
						b.Fatal(err)
					}
				}
			}
			var solveMS, replayMS float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !presolved {
					b.StopTimer()
					light.ResetScheduleCache()
					b.StartTimer()
				}
				v, err := epoch.ReplayEpoch(data, -1)
				if err != nil {
					b.Fatal(err)
				}
				if !v.Pass {
					b.Fatalf("epoch verification failed: %+v", v.Runs)
				}
				for _, rv := range v.Runs {
					solveMS += rv.SolveMS
					replayMS += rv.ReplayMS
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/epoch")
			b.ReportMetric(solveMS/float64(runs*b.N), "solve_ms/run")
			b.ReportMetric(replayMS/float64(runs*b.N), "replay_ms/run")
		})
	}
}

// BenchmarkCodec compares the two log formats over the committed golden
// recordings (`make bench-codec`): LIGHTLOG1, the golden files' own format,
// written by the reference writer in lightlog1_test.go, and LIGHTLOG2, the
// format trace.Encode writes. Each iteration encodes every log into a reused
// buffer and then decodes every encoding with trace.Decode, which reads both.
// B/event is the encoded bytes over the logs' events; encode_ns and decode_ns
// are the medians over the iterations of one pass over all the logs.
func BenchmarkCodec(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("internal", "light", "testdata", "golden", "*.lightlog"))
	if err != nil || len(paths) == 0 {
		b.Fatalf("no golden logs: %v", err)
	}
	var logs []*trace.Log
	events := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		log, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatalf("%s: %v", path, err)
		}
		var v1 bytes.Buffer
		if err := encodeLIGHTLOG1(&v1, log); err != nil || !bytes.Equal(v1.Bytes(), data) {
			b.Fatalf("%s: the reference LIGHTLOG1 writer does not reproduce the file (%v)", path, err)
		}
		logs = append(logs, log)
		events += log.Events()
	}
	formats := []struct {
		name   string
		encode func(io.Writer, *trace.Log) error
	}{{"LIGHTLOG1", encodeLIGHTLOG1}, {"LIGHTLOG2", trace.Encode}}
	for _, f := range formats {
		b.Run(f.name, func(b *testing.B) {
			bufs := make([]bytes.Buffer, len(logs))
			for j, log := range logs {
				if err := f.encode(&bufs[j], log); err != nil {
					b.Fatal(err)
				}
				got, err := trace.Decode(bytes.NewReader(bufs[j].Bytes()))
				if err != nil || !reflect.DeepEqual(got, log) {
					b.Fatalf("%s: %s does not round-trip (%v)", paths[j], f.name, err)
				}
			}
			size := 0
			for j := range bufs {
				size += bufs[j].Len()
			}
			b.ReportAllocs()
			encNS := make([]float64, b.N)
			decNS := make([]float64, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				for j, log := range logs {
					bufs[j].Reset()
					if err := f.encode(&bufs[j], log); err != nil {
						b.Fatal(err)
					}
				}
				t1 := time.Now()
				for j := range bufs {
					if _, err := trace.Decode(bytes.NewReader(bufs[j].Bytes())); err != nil {
						b.Fatal(err)
					}
				}
				encNS[i] = float64(t1.Sub(t0).Nanoseconds())
				decNS[i] = float64(time.Since(t1).Nanoseconds())
			}
			b.ReportMetric(float64(size)/float64(events), "B/event")
			b.ReportMetric(median(encNS), "encode_ns")
			b.ReportMetric(median(decNS), "decode_ns")
		})
	}
}
