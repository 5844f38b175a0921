package light

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/vm"
)

const obsBenchSrc = `
class Counter { field n; }
var c = null;
var lock = 0;

fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    sync (lock) {
      c.n = c.n + 1;
    }
  }
}

fun main() {
  c = new Counter();
  c.n = 0;
  var t1 = spawn bump(400);
  var t2 = spawn bump(400);
  join t1; join t2;
  print(c.n);
}
`

// TestMetricsDoNotChangeTheLog records the same program with metrics off and
// on and checks the logs are identical: observation must never perturb what
// the recorder writes.
func TestMetricsDoNotChangeTheLog(t *testing.T) {
	prog := compile(t, obsBenchSrc)

	logOf := func() ([]int, int64) {
		rec := NewRecorder(Options{O1: true})
		res := vm.Run(vm.Config{Prog: prog, Hooks: rec, Seed: 7})
		l := rec.Finish(res, 7)
		return []int{len(l.Deps), len(l.Ranges), int(l.NumLocs)}, l.SpaceLongs
	}

	obs.Disable()
	offShape, offSpace := logOf()

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	onShape, onSpace := logOf()

	if !reflect.DeepEqual(offShape, onShape) || offSpace != onSpace {
		t.Errorf("metrics changed the log: off %v/%d longs, on %v/%d longs",
			offShape, offSpace, onShape, onSpace)
	}
}

// TestRecorderCountersPopulate checks the instrumented recorder actually
// drives its counters when metrics are enabled.
func TestRecorderCountersPopulate(t *testing.T) {
	prog := compile(t, obsBenchSrc)

	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	obs.Default.ResetAll()

	rec := NewRecorder(Options{O1: true})
	res := vm.Run(vm.Config{Prog: prog, Hooks: rec, Seed: 7})
	rec.Finish(res, 7)

	if mRecReads.Value() == 0 {
		t.Error("shared-read counter did not move")
	}
	if mRecWrites.Value() == 0 {
		t.Error("shared-write counter did not move")
	}
	if mRecRunLength.Count() == 0 {
		t.Error("run-length histogram saw no runs")
	}
	if mRecDeps.Value() == 0 && mRecRanges.Value() == 0 {
		t.Error("log-volume counters did not move")
	}
}

// TestRecorderSeqConflictCounters forces a seqlock conflict (the location's
// version word is held odd while a writer arrives) and checks the fallback
// path counts it. Race builds serialize writes on the stripe lock without the
// seqlock, so the fallback counters legitimately never move there.
func TestRecorderSeqConflictCounters(t *testing.T) {
	if vm.RaceDetector {
		t.Skip("race builds use the lock-based write path; no seqlock fallback")
	}
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	obs.Default.ResetAll()

	rec := NewRecorder(Options{O1: true})
	th := &vm.Thread{ID: 0, Path: "0"}
	rec.ThreadStarted(th)
	arr := &vm.Array{Elems: make([]vm.Value, 1)}
	a := vm.Access{Thread: th, Kind: vm.Write, Loc: vm.Loc{Base: arr, Off: 0}, Site: 0, Counter: 1}

	ls, _ := rec.locState(a)
	ls.seq.Store(1) // simulate a writer parked mid-section
	done := make(chan struct{})
	go func() {
		rec.SharedAccess(a, func() {})
		close(done)
	}()
	// The writer must lose the CAS, take the stripe lock, and spin until the
	// phantom section completes.
	for mRecSeqConflicts.Value() == 0 {
		runtime.Gosched()
	}
	ls.seq.Store(2)
	<-done

	if mRecSeqConflicts.Value() == 0 {
		t.Error("seqlock-conflict counter did not move")
	}
	if mRecStripeAcquisitions.Value() == 0 {
		t.Error("fallback stripe-acquisition counter did not move")
	}
	if got := ls.lw.Load(); got != packTC(0, 1) {
		t.Errorf("fallback write did not publish lw: got %#x", got)
	}
	if ls.seq.Load()&1 != 0 {
		t.Error("seqlock left odd after fallback write")
	}
}

func benchProg(b *testing.B) *compiler.Program {
	b.Helper()
	p, err := compiler.CompileSource(obsBenchSrc)
	if err != nil {
		b.Fatalf("compile: %v", err)
	}
	return p
}

// benchRecorder records prog b.N times; flightCap is the per-thread flight
// ring capacity (0 = no flight recording).
func benchRecorder(b *testing.B, prog *compiler.Program, flightCap int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder(Options{O1: true})
		rec.rings.capacity = flightCap
		res := vm.Run(vm.Config{Prog: prog, Hooks: rec, Seed: uint64(i)})
		rec.Finish(res, uint64(i))
	}
}

// BenchmarkRecorder is the recording hot path with metrics disabled — the
// default production configuration. The acceptance bound for the
// observability layer is <3% regression here versus the uninstrumented tree.
func BenchmarkRecorder(b *testing.B) {
	obs.Disable()
	benchRecorder(b, benchProg(b), 0)
}

// BenchmarkRecorderMetricsOn is the same workload with every counter live,
// to keep the cost of enabling observability visible.
func BenchmarkRecorderMetricsOn(b *testing.B) {
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	benchRecorder(b, benchProg(b), 0)
}

// BenchmarkRecorderFlightOn is the same workload with the flight recorder
// live (metrics off), to keep the per-event ring cost visible. Compared
// against BenchmarkRecorder it bounds what -flight costs; the disabled case
// must stay within noise of the uninstrumented tree — the off path is one
// nil-ring branch.
func BenchmarkRecorderFlightOn(b *testing.B) {
	obs.Disable()
	benchRecorder(b, benchProg(b), flight.DefaultCapacity)
}

// TestGatesSpanInsideReplay: the first replay of a schedule builds its gate
// table under a "gates" span inside the "replay" span; a second replay of
// the same schedule reuses the table and records no gates span.
func TestGatesSpanInsideReplay(t *testing.T) {
	prog, err := compiler.CompileSource(obsBenchSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Seed: 7}
	rec := Record(prog, Options{O1: true}, cfg)
	sched, err := ComputeSchedule(rec.Log)
	if err != nil {
		t.Fatal(err)
	}
	obs.EnableTracing()
	defer obs.DisableTracing()
	for i, wantGates := range []int{1, 0} {
		obs.ResetSpans()
		if _, err := ReplayScheduled(prog, rec.Log, cfg, sched, 0); err != nil {
			t.Fatal(err)
		}
		var gates, replay []obs.Span
		for _, s := range obs.Spans() {
			switch s.Name {
			case "gates":
				gates = append(gates, s)
			case "replay":
				replay = append(replay, s)
			}
		}
		if len(gates) != wantGates || len(replay) != 1 {
			t.Fatalf("replay %d: %d gates and %d replay spans, want %d and 1", i, len(gates), len(replay), wantGates)
		}
		for _, g := range gates {
			r := replay[0]
			if g.StartUnixNS < r.StartUnixNS || g.StartUnixNS+g.DurNS > r.StartUnixNS+r.DurNS {
				t.Errorf("gates span [%d, +%d] outside replay span [%d, +%d]", g.StartUnixNS, g.DurNS, r.StartUnixNS, r.DurNS)
			}
			if g.Items != int64(len(sched.Order)) {
				t.Errorf("gates span items %d, want %d positions", g.Items, len(sched.Order))
			}
		}
	}
}

// TestReplayParksWithinGatedWaits: a gated wait parks only after it has
// found its predecessor pending and used up its yields, so on replays of a
// contended workload light_replay_parks_total never exceeds
// light_replay_gated_waits_total, which must move.
func TestReplayParksWithinGatedWaits(t *testing.T) {
	prog := compile(t, handoffSrc)
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Default.ResetAll()
	}()
	var gated, parks uint64
	for seed := uint64(0); seed < 8; seed++ {
		cfg := RunConfig{Seed: seed}
		rec := Record(prog, Options{O1: true}, cfg)
		sched, err := ComputeSchedule(rec.Log)
		if err != nil {
			t.Fatal(err)
		}
		g0, p0 := mRepGatedWaits.Value(), mRepParks.Value()
		out, err := ReplayScheduled(prog, rec.Log, cfg, sched, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out.Diverged {
			t.Fatalf("seed %d: diverged: %s", seed, out.Reason)
		}
		g, p := mRepGatedWaits.Value()-g0, mRepParks.Value()-p0
		if p > g {
			t.Errorf("seed %d: %d parks, more than its %d gated waits", seed, p, g)
		}
		gated += g
		parks += p
	}
	if gated == 0 {
		t.Fatal("no replay found a predecessor pending; the workload is not contended")
	}
	t.Logf("%d gated waits, %d parks", gated, parks)
}
