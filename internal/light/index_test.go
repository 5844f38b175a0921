package light

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestKeyArmForms: an arm is dense exactly when its span is at most
// denseSpanFactor times its references, and both forms rank every value of
// the set, and reject every other value, the same way.
func TestKeyArmForms(t *testing.T) {
	build := func(refs []uint64) *keyArm {
		a := &keyArm{}
		for _, v := range refs {
			a.note(v)
		}
		a.plan()
		for _, v := range refs {
			a.add(v)
		}
		a.seal()
		return a
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		span := uint64(1 + rng.Intn(3*denseSpanFactor*n))
		base := uint64(rng.Int63())
		refs := make([]uint64, n)
		for i := range refs {
			refs[i] = base + uint64(rng.Int63n(int64(span)))
		}
		a := build(refs)
		lo, hi := slices.Min(refs), slices.Max(refs)
		if dense := hi-lo < uint64(n)*denseSpanFactor; dense != (a.slot != nil) {
			t.Fatalf("trial %d: span %d over %d references: dense=%v, want %v", trial, hi-lo+1, n, a.slot != nil, dense)
		}
		set := slices.Clone(refs)
		slices.Sort(set)
		set = slices.Compact(set)
		var vals []uint64
		a.each(func(v uint64) { vals = append(vals, v) })
		if !slices.Equal(vals, set) {
			t.Fatalf("trial %d: values %v, want %v", trial, vals, set)
		}
		for v := lo - 2; v != hi+3; v++ {
			i, in := slices.BinarySearch(set, v)
			if r, ok := a.rank(v); ok != in || ok && int(r) != i {
				t.Fatalf("trial %d: rank(%d) = %d, %v; want %d, %v", trial, v, r, ok, i, in)
			}
		}
	}
	if a := build([]uint64{0, 1 << 62}); a.slot != nil {
		t.Fatal("an arm spanning 2^62 over two references is dense")
	}
}

// spreadCounters returns a copy of the log whose counters keep each
// thread's order but lie 2^40 apart, from 2^62 up, so every thread's arm in
// its counter index is sparse, together with the map back to the original
// counters.
func spreadCounters(log *trace.Log) (*trace.Log, map[trace.TC]trace.TC) {
	nt := int32(len(log.Threads))
	seen := make([][]uint64, nt)
	visit := func(tc trace.TC) {
		if tc.Thread >= 0 && tc.Thread < nt {
			seen[tc.Thread] = append(seen[tc.Thread], tc.Counter)
		}
	}
	for _, d := range log.Deps {
		visit(d.R)
		visit(d.W)
	}
	for _, rg := range log.Ranges {
		visit(trace.TC{Thread: rg.Thread, Counter: rg.Start})
		visit(trace.TC{Thread: rg.Thread, Counter: rg.End})
		visit(rg.W)
	}
	back := make(map[trace.TC]trace.TC)
	spread := func(tc trace.TC) trace.TC {
		if tc.Thread < 0 || tc.Thread >= nt {
			return tc
		}
		i, _ := slices.BinarySearch(seen[tc.Thread], tc.Counter)
		out := trace.TC{Thread: tc.Thread, Counter: 1<<62 + uint64(i)<<40}
		back[out] = tc
		return out
	}
	for th := range seen {
		slices.Sort(seen[th])
		seen[th] = slices.Compact(seen[th])
	}
	out := *log
	out.Deps = slices.Clone(log.Deps)
	out.Ranges = slices.Clone(log.Ranges)
	for i := range out.Deps {
		out.Deps[i].R, out.Deps[i].W = spread(out.Deps[i].R), spread(out.Deps[i].W)
	}
	for i := range out.Ranges {
		rg := &out.Ranges[i]
		start, end := spread(trace.TC{Thread: rg.Thread, Counter: rg.Start}), spread(trace.TC{Thread: rg.Thread, Counter: rg.End})
		rg.Start, rg.End, rg.W = start.Counter, end.Counter, spread(rg.W)
	}
	return &out, back
}

// TestSparseArmsMatchDense solves every golden log twice: as recorded,
// where most threads index densely, and with its counters spread so every
// thread's arm is sparse. The two solves must agree on the order, the
// stats and the replay gates' wait table, and the spread log must solve
// within a small, fixed allocation although its counters pass 2^62.
func TestSparseArmsMatchDense(t *testing.T) {
	dense := 0
	for _, src := range goldenSources() {
		log := loadGoldenLog(t, src)
		sched, err := ComputeSchedule(log)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		for _, a := range sched.index.threads {
			if a.slot != nil {
				dense++
			}
		}
		far, back := spreadCounters(log)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		farSched, err := ComputeSchedule(far)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s spread: %v", src.name, err)
		}
		for th, a := range farSched.index.threads {
			if a.slot != nil {
				t.Fatalf("%s spread: thread %d indexed densely", src.name, th)
			}
		}
		// Well above any golden log's solve, far below a slot per counter.
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
			t.Errorf("%s spread: ComputeSchedule allocated %d bytes", src.name, got)
		}
		order := make([]trace.TC, len(farSched.Order))
		for i, tc := range farSched.Order {
			order[i] = back[tc]
		}
		if !slices.Equal(order, sched.Order) {
			t.Errorf("%s: spread counters change the order", src.name)
		}
		if !reflect.DeepEqual(farSched.Stats, sched.Stats) {
			t.Errorf("%s: spread counters change the stats: %+v, want %+v", src.name, farSched.Stats, sched.Stats)
		}
		if !slices.Equal(farSched.gates().wait, sched.gates().wait) {
			t.Errorf("%s: spread counters change the wait table", src.name)
		}
		if err := CheckSchedule(far, farSched); err != nil {
			t.Errorf("%s spread: %v", src.name, err)
		}
	}
	if dense == 0 {
		t.Fatal("no golden log indexes a thread densely")
	}
}

// TestFarCounterAllocBound: a log whose counters reach 2^63 - 1 next to
// small ones solves, is checked and gets its gate table through sparse
// arms, within a fixed allocation bound.
func TestFarCounterAllocBound(t *testing.T) {
	const far = 1<<63 - 1
	log := &trace.Log{
		Threads: []string{"0", "0.1"},
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: far}},
			{Loc: 1 << 30, W: trace.TC{Thread: 0, Counter: 2}, R: trace.TC{Thread: 1, Counter: far - 1}},
		},
		Ranges: []trace.Range{{Loc: 0, Thread: 1, Start: 0, End: 1, HasWrite: true}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	g := sched.gates()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("solve, check and gates allocated %d bytes", got)
	}
	for th, a := range sched.index.threads {
		if a.slot != nil {
			t.Errorf("thread %d indexed densely", th)
		}
	}
	if sched.index.locs.slot != nil {
		t.Error("locations 0 and 2^30 indexed densely")
	}
	if len(sched.Order) != 5 {
		t.Fatalf("order %v, want 5 entries", sched.Order)
	}
	for p, tc := range sched.Order {
		if q, ok := sched.position(tc); !ok || q != p {
			t.Errorf("position(%+v) = %d, %v; want %d", tc, q, ok, p)
		}
	}
	if _, ok := sched.position(trace.TC{Thread: 0, Counter: far - 1}); ok {
		t.Error("an access the log does not name has a position")
	}
	if len(g.wait) != len(sched.Order) {
		t.Fatalf("wait table has %d entries for %d positions", len(g.wait), len(sched.Order))
	}
}

// malformedLogs are logs no recording produces, one per shape
// checkLogShape rejects, each over a 2-thread table.
func malformedLogs() map[string]*trace.Log {
	threads := []string{"0", "0.1"}
	w := trace.TC{Thread: 1, Counter: 1}
	r := trace.TC{Thread: 0, Counter: 2}
	dep := func(d trace.Dep) *trace.Log {
		return &trace.Log{Threads: threads, Deps: []trace.Dep{d}}
	}
	rng := func(rg trace.Range) *trace.Log {
		return &trace.Log{Threads: threads, Ranges: []trace.Range{rg}}
	}
	return map[string]*trace.Log{
		"dep-negative-loc":       dep(trace.Dep{Loc: -3, W: w, R: r}),
		"dep-reader-off-table":   dep(trace.Dep{Loc: 0, W: w, R: trace.TC{Thread: 2, Counter: 2}}),
		"dep-writer-off-table":   dep(trace.Dep{Loc: 0, W: trace.TC{Thread: 7, Counter: 1}, R: r}),
		"dep-writer-below-init":  dep(trace.Dep{Loc: 0, W: trace.TC{Thread: -2, Counter: 1}, R: r}),
		"range-negative-loc":     rng(trace.Range{Loc: -1, Thread: 0, Start: 1, End: 2, HasWrite: true}),
		"range-thread-off-table": rng(trace.Range{Loc: 0, Thread: 2, Start: 1, End: 2, HasWrite: true}),
		"range-source-off-table": rng(trace.Range{Loc: 0, Thread: 0, Start: 1, End: 2, W: trace.TC{Thread: 5, Counter: 1}, StartsWithRead: true}),
	}
}

// TestComputeScheduleRejectsMalformedLog: a negative location or a thread
// outside the table is an error before any solving. CheckSchedule accepts
// a schedule over a negative location, and the replay gates treat it as no
// location, so such a dependence would otherwise replay ungated.
func TestComputeScheduleRejectsMalformedLog(t *testing.T) {
	for name, log := range malformedLogs() {
		sched, err := ComputeSchedule(log)
		if err == nil || !strings.Contains(err.Error(), "malformed log: ") {
			t.Errorf("%s: ComputeSchedule = %v, %v; want a malformed-log error", name, sched, err)
		}
	}
	// The same shapes with every location and thread in range solve.
	good := &trace.Log{
		Threads: []string{"0", "0.1"},
		Deps: []trace.Dep{
			{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
			{Loc: 1, W: trace.TC{Thread: trace.InitialThread}, R: trace.TC{Thread: 1, Counter: 3}},
		},
		Ranges: []trace.Range{{Loc: 2, Thread: 0, Start: 4, End: 6, W: trace.TC{Thread: 1, Counter: 1}, StartsWithRead: true}},
	}
	sched, err := ComputeSchedule(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(good, sched); err != nil {
		t.Fatal(err)
	}
	if w := sched.gates().wait; slices.Max(w) < 0 {
		t.Errorf("wait table %v gates no cross-thread dependence", w)
	}
}
