package light

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/vm"
)

// locState returns a location's state and ID, assigning the ID on first
// touch as SharedAccess does.
func (r *Recorder) locState(a vm.Access) (*locState, int32) {
	id := r.locID(a)
	return r.locs.at(id), id
}

// manyThreadSrc is the many-thread probe shape (ROADMAP item 14): main
// spawns workers four at a time and joins them, each worker writes its own
// cell of a shared array, and main reads the cells back, so at most five
// threads are alive at once. The run has workers+1 threads.
func manyThreadSrc(workers int) string {
	return fmt.Sprintf(`
var a = null;
fun w(i) { a[i] = i; }
fun main() {
  var n = %d;
  a = newarr(n);
  for (var i = 0; i < n; i = i + 4) {
    var t0 = spawn w(i); var t1 = spawn w(i + 1);
    var t2 = spawn w(i + 2); var t3 = spawn w(i + 3);
    join t0; join t1; join t2; join t3;
  }
  var s = 0;
  for (var i = 0; i < n; i = i + 1) { s = s + a[i]; }
  print(s);
}
`, workers)
}

// recordAllocBytes returns the heap bytes a cold Record of prog allocates:
// two collections first empty the recorder's pools (sync.Pool drops what
// survived the previous collection), so every thread starts from fresh
// buffers, and the figure does not depend on how many pooled buffers a run
// finds. It is the median of three.
func recordAllocBytes(prog *compiler.Program) uint64 {
	var bytes [3]uint64
	for i := range bytes {
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		Record(prog, Options{O1: true}, RunConfig{Seed: 1})
		runtime.ReadMemStats(&m1)
		bytes[i] = m1.TotalAlloc - m0.TotalAlloc
	}
	slices.Sort(bytes[:])
	return bytes[len(bytes)/2]
}

// TestRecordManyThreadsAlloc bounds what the recorder's per-thread state
// costs on the many-thread probe. Each thread's run table grows with the
// locations that thread touches, not with the run's location count, so a
// cold 2,001-thread record allocates less than the 13.2 MiB that the
// map-keyed run tables and boxed shadow cells this layout replaced did
// (measured the same way; about 4.5 MiB now), and doubling the threads at
// most about doubles the bytes.
func TestRecordManyThreadsAlloc(t *testing.T) {
	if vm.RaceDetector {
		t.Skip("race builds allocate shadow memory per goroutine")
	}
	const parentBytes = 13.2 * (1 << 20)
	small := compile(t, manyThreadSrc(2000))
	large := compile(t, manyThreadSrc(4000))
	b1 := recordAllocBytes(small)
	b2 := recordAllocBytes(large)
	t.Logf("2,001 threads: %.2f MiB; 4,001 threads: %.2f MiB (%.2f×)",
		float64(b1)/(1<<20), float64(b2)/(1<<20), float64(b2)/float64(b1))
	if float64(b1) > parentBytes {
		t.Errorf("2,001-thread record allocated %.2f MiB, more than %.1f MiB", float64(b1)/(1<<20), parentBytes/(1<<20))
	}
	if float64(b2) > 2.2*float64(b1) {
		t.Errorf("4,001 threads allocated %.2f× the bytes of 2,001, want at most about 2×", float64(b2)/float64(b1))
	}
}

// freshLocsSrc writes n fresh array cells from one thread: n locations, each
// touched once.
func freshLocsSrc(n int) string {
	return fmt.Sprintf(`
var a = null;
fun main() {
  a = newarr(%d);
  for (var i = 0; i < %d; i = i + 1) { a[i] = i; }
}
`, n, n)
}

// mallocs returns the heap allocations one call of f makes: the fewest of
// five calls, each after two collections, which empty the sync.Pools. The
// count is process-wide, so the runtime's own allocations during a call
// (a few, now and then) would otherwise move it.
func mallocs(f func()) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.Mallocs-m0.Mallocs)
	}
	return best
}

// TestRecordFreshLocationAllocs: the recorder keeps per-location state in
// chunks, so recording N fresh locations costs O(N / runChunk) allocations
// more than running the same program under vm.NopHooks: one run-table chunk
// per runChunk locations the thread touches, plus O(log N) for locTable's
// chunks and the run table's slot index. A per-location or per-access
// allocation adds at least N.
func TestRecordFreshLocationAllocs(t *testing.T) {
	if vm.RaceDetector {
		t.Skip("race builds allocate per goroutine and per access")
	}
	extra := func(n int) int64 {
		prog := compile(t, freshLocsSrc(n))
		cfg := vm.Config{Prog: prog, Hooks: vm.NopHooks{}, Seed: 1}
		Record(prog, Options{O1: true}, RunConfig{Seed: 1}) // warm the pools
		nop := mallocs(func() { vm.Run(cfg) })
		rec := mallocs(func() { Record(prog, Options{O1: true}, RunConfig{Seed: 1}) })
		return int64(rec) - int64(nop)
	}
	const n1, n2 = 1 << 10, 1 << 14
	e1, e2 := extra(n1), extra(n2)
	t.Logf("recorder allocations over NopHooks: %d for %d locations, %d for %d", e1, n1, e2, n2)
	if limit := int64((n2-n1)/runChunk + 64); e2-e1 > limit {
		t.Errorf("%d more fresh locations cost %d more allocations, want at most %d", n2-n1, e2-e1, limit)
	}
	if limit := int64(n2/runChunk + 128); e2 > limit {
		t.Errorf("recording %d fresh locations cost %d allocations over NopHooks, want at most %d", n2, e2, limit)
	}
}

// TestRecorderConcurrentFirstTouch races threads that first-touch the same
// fresh locations in different orders, so shadow-cell claims collide and
// locTable grows new chunks under contention. Every thread must resolve a
// location to the same ID and state, distinct locations to distinct IDs,
// and every ID must lie below nextLoc with its chunk in place. make race
// repeats it.
func TestRecorderConcurrentFirstTouch(t *testing.T) {
	const workers, nLocs = 8, 3000 // 3,000 locations span 26 chunks
	rec := NewRecorder(Options{O1: true})
	arr := &vm.Array{Elems: make([]vm.Value, nLocs)}
	ids := make([][]int32, workers)
	states := make([][]*locState, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := &vm.Thread{ID: w, Path: fmt.Sprintf("0.%d", w)}
			rec.ThreadStarted(th)
			order := rand.New(rand.NewSource(int64(w))).Perm(nLocs)
			ids[w] = make([]int32, nLocs)
			states[w] = make([]*locState, nLocs)
			start.Wait()
			for i, loc := range order {
				a := vm.Access{Thread: th, Kind: vm.Write, Loc: vm.ElemLoc(arr, int64(loc)), Counter: uint64(i + 1), Slot: loc}
				states[w][loc], ids[w][loc] = rec.locState(a)
				rec.SharedAccess(a, func() {})
			}
			rec.ThreadExited(th)
		}(w)
	}
	start.Done()
	wg.Wait()
	log := rec.Finish(nil, 0)

	seen := make(map[int32]int, nLocs)
	for loc := 0; loc < nLocs; loc++ {
		id := ids[0][loc]
		for w := 1; w < workers; w++ {
			if ids[w][loc] != id || states[w][loc] != states[0][loc] {
				t.Fatalf("location %d: thread %d sees ID %d, thread 0 sees %d (or a different state)", loc, w, ids[w][loc], id)
			}
		}
		if id < 0 || id >= log.NumLocs {
			t.Fatalf("location %d: ID %d outside [0, %d)", loc, id, log.NumLocs)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("locations %d and %d share ID %d", prev, loc, id)
		}
		seen[id] = loc
		if states[0][loc] != rec.locs.at(id) {
			t.Fatalf("location %d: state is not locTable's entry for ID %d", loc, id)
		}
	}
	// Every location ends with one write, the last of the threads' writes.
	for loc := 0; loc < nLocs; loc++ {
		if tid, _ := unpackTC(states[0][loc].lw.Load()); tid < 0 || tid >= workers {
			t.Fatalf("location %d: last write by thread %d", loc, tid)
		}
	}
}

// TestChunkOf: chunkOf numbers records consecutively through chunks of
// chunkLen records each, from a chunk of 8 up to the last int32 index.
func TestChunkOf(t *testing.T) {
	wantK, wantOff := 0, int32(0)
	for i := int32(0); i < 1<<20; i++ {
		k, off := chunkOf(i)
		if k != wantK || off != wantOff {
			t.Fatalf("chunkOf(%d) = (%d, %d), want (%d, %d)", i, k, off, wantK, wantOff)
		}
		if wantOff++; int(wantOff) == chunkLen(wantK) {
			wantK, wantOff = wantK+1, 0
		}
	}
	if chunkLen(0) != 8 {
		t.Errorf("first chunk holds %d records, want 8", chunkLen(0))
	}
	// The last level starts 32 records before 1<<31, in chunk maxChunks-1.
	if k, off := chunkOf(math.MaxInt32); k != maxChunks-1 || off != 31 {
		t.Errorf("chunkOf(MaxInt32) = (%d, %d), want (%d, 31)", k, off, maxChunks-1)
	}
}
