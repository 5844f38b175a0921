package vm

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/compiler"
)

// slotLoopSrc reads and writes a field, a global and an array element on
// every iteration: five reads (two field, two global, one element) and three
// writes (one of each).
const slotLoopSrc = `
class C { field f; }
var g = 0;
fun main() {
  var c = new C();
  c.f = 0;
  var a = newarr(4);
  a[0] = 0; a[1] = 0; a[2] = 0; a[3] = 0;
  for (var i = 0; i < ITERS; i = i + 1) {
    c.f = c.f + 1;
    g = g + c.f;
    a[i % 4] = a[i % 4] + g;
  }
  print(c.f);
}
`

const (
	slotReadsPerIter  = 5
	slotWritesPerIter = 3
)

// Allocations per hooked access, as before loadSlot and storeSlot existed:
// a read builds the slot closure, sharedRead's wrapper closure and the heap
// cell its result escapes to; a write builds the slot closure only.
const (
	hookedReadAllocs  = 3
	hookedWriteAllocs = 1
)

// allocSlack absorbs what the allocation comparisons cannot control:
// testing.AllocsPerRun rounds each mean down, and the runtime now and then
// allocates for itself. One allocation per access would add thousands.
const allocSlack = 2

func compileSlotLoop(t *testing.T, iters int) *compiler.Program {
	t.Helper()
	p, err := compiler.CompileSource(strings.Replace(slotLoopSrc, "ITERS", strconv.Itoa(iters), 1))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// heapSiteMask leaves out every field, global and array site, as the O2 mask
// does for accesses always guarded by the same lock.
func heapSiteMask(p *compiler.Program) []bool {
	mask := make([]bool, len(p.Sites))
	for i, s := range p.Sites {
		switch s.Kind {
		case compiler.SiteFieldRead, compiler.SiteFieldWrite, compiler.SiteGlobalRead,
			compiler.SiteGlobalWrite, compiler.SiteIndexRead, compiler.SiteIndexWrite:
		default:
			mask[i] = true
		}
	}
	return mask
}

// countingHooks counts the accesses it sees by location kind and checks
// that each carries the next counter of its thread. It allocates nothing.
type countingHooks struct {
	NopHooks
	fieldR, fieldW, globalR, globalW, elemR, elemW int
	last                                           uint64
	gaps                                           int
}

func (h *countingHooks) SharedAccess(a Access, do func()) {
	if a.Counter != h.last+1 {
		h.gaps++
	}
	h.last = a.Counter
	r := a.Kind == Read
	switch a.Loc.Base.(type) {
	case *Object:
		h.fieldR, h.fieldW = h.fieldR+b2i(r), h.fieldW+b2i(!r)
	case *GlobalsBase:
		h.globalR, h.globalW = h.globalR+b2i(r), h.globalW+b2i(!r)
	case *Array:
		h.elemR, h.elemW = h.elemR+b2i(r), h.elemW+b2i(!r)
	}
	do()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runSlotLoop(t *testing.T, p *compiler.Program, mask []bool, h Hooks) *Result {
	t.Helper()
	res := Run(Config{Prog: p, Instrument: mask, Hooks: h})
	if b := res.FirstBug(); b != nil {
		t.Fatalf("unexpected bug: %v", b)
	}
	return res
}

// TestUnhookedSlotsDoNotAllocate: a field, global or array access at a site
// the mask leaves out runs inline, so doubling the loop's iterations adds no
// allocation.
func TestUnhookedSlotsDoNotAllocate(t *testing.T) {
	const n = 2000
	pN, p2N := compileSlotLoop(t, n), compileSlotLoop(t, 2*n)
	mN, m2N := heapSiteMask(pN), heapSiteMask(p2N)
	if got := runSlotLoop(t, p2N, m2N, nil).Output("0"); len(got) != 1 || got[0] != strconv.Itoa(2*n) {
		t.Fatalf("output = %v, want [%d]", got, 2*n)
	}
	if RaceDetector {
		t.Skip("the race runtime makes allocations of its own")
	}
	allocsN := testing.AllocsPerRun(5, func() { Run(Config{Prog: pN, Instrument: mN}) })
	allocs2N := testing.AllocsPerRun(5, func() { Run(Config{Prog: p2N, Instrument: m2N}) })
	if allocs2N > allocsN+allocSlack {
		t.Errorf("allocations grew with iterations: %v at %d, %v at %d", allocsN, n, allocs2N, 2*n)
	}
}

// TestHookedSlotsReachHooks: with the same sites hooked, every access still
// reaches the hook in counter order, and each costs exactly the closures it
// did before the unhooked path ran inline.
func TestHookedSlotsReachHooks(t *testing.T) {
	const n = 500
	pN, p2N := compileSlotLoop(t, n), compileSlotLoop(t, 2*n)
	var hN, h2N countingHooks
	resN := runSlotLoop(t, pN, nil, &hN)
	res2N := runSlotLoop(t, p2N, nil, &h2N)
	for _, c := range []struct {
		name string
		h    *countingHooks
		res  *Result
	}{{"N", &hN, resN}, {"2N", &h2N, res2N}} {
		if c.h.gaps != 0 || c.h.last != c.res.Threads["0"].Counter {
			t.Errorf("%s: %d counter gaps, last hooked counter %d, thread counter %d",
				c.name, c.h.gaps, c.h.last, c.res.Threads["0"].Counter)
		}
	}
	diff := [6]int{
		h2N.fieldR - hN.fieldR, h2N.fieldW - hN.fieldW,
		h2N.globalR - hN.globalR, h2N.globalW - hN.globalW,
		h2N.elemR - hN.elemR, h2N.elemW - hN.elemW,
	}
	if want := [6]int{2 * n, n, 2 * n, n, n, n}; diff != want {
		t.Errorf("hooked accesses added by %d iterations (fieldR, fieldW, globalR, globalW, elemR, elemW) = %v, want %v", n, diff, want)
	}
	if RaceDetector {
		return // the race runtime makes allocations of its own
	}
	allocsN := testing.AllocsPerRun(5, func() { Run(Config{Prog: pN, Hooks: &countingHooks{}}) })
	allocs2N := testing.AllocsPerRun(5, func() { Run(Config{Prog: p2N, Hooks: &countingHooks{}}) })
	want := float64(n * (slotReadsPerIter*hookedReadAllocs + slotWritesPerIter*hookedWriteAllocs))
	if got := allocs2N - allocsN; got < want-allocSlack || got > want+allocSlack {
		t.Errorf("allocations added by %d hooked iterations = %v, want %v", n, got, want)
	}
}
