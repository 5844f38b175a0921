package light

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/vm"
)

// This file stress-tests the recorder's concurrent hot path — the seqlock
// write section, the stripe-lock fallback, and the optimistic read loop —
// from real goroutines, and cross-checks the recorded log against the same
// brute-force checker the serial property tests use (prec_property_test.go).
// The trick is recovering a ground-truth serialization from a genuinely
// parallel run: each write's do() closure appends the write's identity to a
// per-location order slice (sound because the recorder guarantees write
// sections on one location are mutually exclusive, and the seqlock/stripe
// handoff is an atomic release/acquire edge), and each read's do() records
// the packed last-write value it observed (the validated iteration's load is
// the one that sticks). Writes in append order plus reads attached after
// their observed writer reconstruct a serial history every access agrees
// with, which checkLog then verifies the log against.

// stressAccess is one access as its own thread saw it.
type stressAccess struct {
	c        uint64
	loc      int // array index
	write    bool
	observed uint64 // reads: packed lw captured inside the validated do()
}

// runStress drives nThreads goroutine-backed VM threads through SharedAccess
// on a shared array of nLocs elements, with hot biasing the location choice
// toward element 0 (hot-field pattern) or spreading uniformly (striped
// pattern). It returns the finished log and the reconstructed serial history.
func runStress(t *testing.T, opts Options, nThreads, nLocs, perThread int, hot bool, seed int64) (*trace.Log, []truth) {
	t.Helper()
	rec := NewRecorder(opts)
	arr := &vm.Array{Elems: make([]vm.Value, nLocs)}

	// Per-location write serialization order, appended under the recorder's
	// own write-section exclusivity.
	writeOrder := make([][]trace.TC, nLocs)

	threads := make([]*vm.Thread, nThreads)
	perThreadLog := make([][]stressAccess, nThreads)
	for i := range threads {
		threads[i] = &vm.Thread{Path: fmt.Sprintf("0.%d", i), ID: i}
		rec.ThreadStarted(threads[i])
	}

	var wg sync.WaitGroup
	for w := 0; w < nThreads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := threads[w]
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var c uint64
			local := make([]stressAccess, 0, perThread)
			for i := 0; i < perThread; i++ {
				loc := 0
				if !hot {
					loc = rng.Intn(nLocs)
				} else if rng.Float64() < 0.25 {
					// Hot pattern: 75% of traffic on element 0, the rest
					// spread out so runs still break across locations.
					loc = rng.Intn(nLocs)
				}
				write := rng.Float64() < 0.5
				c++
				a := vm.Access{
					Thread: th, Kind: vm.Read, Loc: vm.ElemLoc(arr, int64(loc)),
					Site: 0, Counter: c, Slot: loc,
				}
				if write {
					a.Kind = vm.Write
					mine := trace.TC{Thread: int32(w), Counter: c}
					rec.SharedAccess(a, func() {
						writeOrder[loc] = append(writeOrder[loc], mine)
					})
					local = append(local, stressAccess{c: c, loc: loc, write: true})
				} else {
					ls, _ := rec.locState(a)
					var obs uint64
					rec.SharedAccess(a, func() {
						obs = ls.lw.Load()
					})
					local = append(local, stressAccess{c: c, loc: loc, observed: obs})
				}
			}
			perThreadLog[w] = local
		}(w)
	}
	wg.Wait()
	for _, th := range threads {
		rec.ThreadExited(th)
	}
	log := rec.Finish(nil, 0)

	// Map array indices to recorder location IDs (cells exist by now; a
	// location no thread touched simply has no accesses to place).
	locID := make([]int32, nLocs)
	for i := range locID {
		_, locID[i] = rec.locState(vm.Access{
			Loc: vm.ElemLoc(arr, int64(i)), Slot: i,
		})
	}

	// Reconstruct the per-location serial order: writes as appended, each
	// followed by the reads that observed it (same-writer reads commute, so
	// (tid, c) order is a valid choice); initial-value reads lead.
	readsBySource := make([]map[uint64][]truth, nLocs)
	for i := range readsBySource {
		readsBySource[i] = make(map[uint64][]truth)
	}
	for w, accs := range perThreadLog {
		for _, a := range accs {
			if a.write {
				continue
			}
			tr := truth{tid: w, c: a.c, loc: int(locID[a.loc])}
			if wt, wc := unpackTC(a.observed); wt >= 0 {
				tr.srcT, tr.srcC = int32(wt), wc
			} else {
				tr.srcT = trace.InitialThread
			}
			readsBySource[a.loc][a.observed] = append(readsBySource[a.loc][a.observed], tr)
		}
	}
	var hist []truth
	pos := 0
	emit := func(tr truth) {
		tr.pos = pos
		pos++
		hist = append(hist, tr)
	}
	for loc := 0; loc < nLocs; loc++ {
		attach := func(packed uint64) {
			rs := readsBySource[loc][packed]
			sort.Slice(rs, func(i, j int) bool {
				if rs[i].tid != rs[j].tid {
					return rs[i].tid < rs[j].tid
				}
				return rs[i].c < rs[j].c
			})
			for _, tr := range rs {
				emit(tr)
			}
			delete(readsBySource[loc], packed)
		}
		attach(0)
		for _, wtc := range writeOrder[loc] {
			emit(truth{
				tid: int(wtc.Thread), c: wtc.Counter,
				loc: int(locID[loc]), write: true,
			})
			attach(packTC(int(wtc.Thread), wtc.Counter))
		}
		// Every read must have observed the initial value or a real write.
		for packed := range readsBySource[loc] {
			wt, wc := unpackTC(packed)
			t.Errorf("loc %d: reads observed write (t%d,c%d) that no write section recorded", loc, wt, wc)
		}
	}
	return log, hist
}

// TestRecorderStressParallel hammers one hot location and one striped array
// from concurrent goroutine-backed threads at GOMAXPROCS 2 and 8 and checks
// the recorded dependences against brute force. Runs under -race as well:
// race builds exercise the lock-based path, regular builds the seqlock path.
func TestRecorderStressParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	perThread := 2000
	patterns := []struct {
		name string
		hot  bool
		locs int
	}{
		{"hotfield", true, 4},
		{"stripedarray", false, 64},
	}
	for _, procs := range []int{2, 8} {
		for _, p := range patterns {
			p := p
			procs := procs
			t.Run(fmt.Sprintf("%s/procs=%d", p.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, opts := range []Options{{O1: true}, {}} {
					log, hist := runStress(t, opts, 8, p.locs, perThread, p.hot, 42)
					if err := checkLog(log, hist); err != nil {
						t.Fatalf("opts %+v: %v", opts, err)
					}
				}
			})
		}
	}
}

// TestRecorderStressHandoff drives a producer/consumer hand-off pair per slot:
// the producer writes a slot the consumer polls with reads, the tightest
// cross-thread read-validation pattern (every consumer read races the
// producer's next write section).
func TestRecorderStressHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const pairs = 4
	rec := NewRecorder(Options{O1: true})
	arr := &vm.Array{Elems: make([]vm.Value, pairs)}
	writeOrder := make([][]trace.TC, pairs)
	threads := make([]*vm.Thread, 2*pairs)
	perThreadLog := make([][]stressAccess, 2*pairs)
	for i := range threads {
		threads[i] = &vm.Thread{Path: fmt.Sprintf("0.%d", i), ID: i}
		rec.ThreadStarted(threads[i])
	}
	const rounds = 3000
	var wg sync.WaitGroup
	for pair := 0; pair < pairs; pair++ {
		prod, cons := threads[2*pair], threads[2*pair+1]
		wg.Add(2)
		go func(pair int, th *vm.Thread) {
			defer wg.Done()
			var c uint64
			local := make([]stressAccess, 0, rounds)
			for i := 0; i < rounds; i++ {
				c++
				mine := trace.TC{Thread: int32(th.ID), Counter: c}
				rec.SharedAccess(vm.Access{
					Thread: th, Kind: vm.Write, Loc: vm.ElemLoc(arr, int64(pair)),
					Site: 0, Counter: c, Slot: pair,
				}, func() {
					writeOrder[pair] = append(writeOrder[pair], mine)
				})
				local = append(local, stressAccess{c: c, loc: pair, write: true})
			}
			perThreadLog[th.ID] = local
		}(pair, prod)
		go func(pair int, th *vm.Thread) {
			defer wg.Done()
			var c uint64
			local := make([]stressAccess, 0, rounds)
			a := vm.Access{Thread: th, Kind: vm.Read, Loc: vm.ElemLoc(arr, int64(pair)), Site: 0, Slot: pair}
			ls, _ := rec.locState(a)
			for i := 0; i < rounds; i++ {
				c++
				a.Counter = c
				var obs uint64
				rec.SharedAccess(a, func() { obs = ls.lw.Load() })
				local = append(local, stressAccess{c: c, loc: pair, observed: obs})
			}
			perThreadLog[th.ID] = local
		}(pair, cons)
	}
	wg.Wait()
	for _, th := range threads {
		rec.ThreadExited(th)
	}
	log := rec.Finish(nil, 0)

	// Same reconstruction as runStress, specialized to the hand-off shape.
	locID := make([]int32, pairs)
	for i := range locID {
		_, locID[i] = rec.locState(vm.Access{Loc: vm.ElemLoc(arr, int64(i)), Slot: i})
	}
	var hist []truth
	pos := 0
	for pair := 0; pair < pairs; pair++ {
		reads := make(map[uint64][]truth)
		for _, a := range perThreadLog[2*pair+1] {
			tr := truth{tid: 2*pair + 1, c: a.c, loc: int(locID[pair])}
			if wt, wc := unpackTC(a.observed); wt >= 0 {
				tr.srcT, tr.srcC = int32(wt), wc
			} else {
				tr.srcT = trace.InitialThread
			}
			reads[a.observed] = append(reads[a.observed], tr)
		}
		emit := func(tr truth) {
			tr.pos = pos
			pos++
			hist = append(hist, tr)
		}
		attach := func(packed uint64) {
			rs := reads[packed]
			sort.Slice(rs, func(i, j int) bool { return rs[i].c < rs[j].c })
			for _, tr := range rs {
				emit(tr)
			}
			delete(reads, packed)
		}
		attach(0)
		for _, wtc := range writeOrder[pair] {
			emit(truth{tid: int(wtc.Thread), c: wtc.Counter, loc: int(locID[pair]), write: true})
			attach(packTC(int(wtc.Thread), wtc.Counter))
		}
		if len(reads) != 0 {
			t.Fatalf("pair %d: reads observed writes no write section recorded", pair)
		}
	}
	if err := checkLog(log, hist); err != nil {
		t.Fatal(err)
	}
}
