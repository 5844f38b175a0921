package light

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/trace"
)

// Component schedule cache (DESIGN.md §4d). Fuzz campaigns, regression
// sweeps, and replay-many-times workflows re-solve identical constraint
// components over and over; replicated program structure even repeats
// components within one solve. The cache keys a residual component by a
// canonical content hash of its constraint system — variables renamed to
// their dense index in the component's sorted variable list, so the key
// depends only on constraint *structure*, never on absolute thread IDs or
// counters — and stores the solver's decision, not the solver's work: the
// chosen disjunct per residual disjunction. The CDCL(T) search is a
// deterministic function of the canonical structure (problem construction
// consumes the component in canonical order), so a hit reproduces exactly
// what the miss path would compute.

// DefaultSolveCache enables the component schedule cache; the cmd front
// ends expose it as -solvecache. Disabling it only costs time: hits and
// misses produce identical schedules.
var DefaultSolveCache = true

// schedCacheMax bounds the entry count; at the cap the cache stops
// admitting new entries (eviction would only change hit rates, and a full
// reset on overflow would make hit rates load-order-dependent in tests).
const schedCacheMax = 4096

// scheduleCache is a bounded, process-wide, mutex-guarded map from a
// component key to its selection: the chosen disjunct (0/1) per residual
// disjunction. Entries are immutable after store.
type scheduleCache struct {
	mu sync.Mutex
	m  map[[32]byte][]uint8
}

var schedCache = &scheduleCache{m: make(map[[32]byte][]uint8)}

func (c *scheduleCache) lookup(k [32]byte) ([]uint8, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	return e, ok
}

// hydrate inserts an entry without writing it back to disk (it just came
// from there).
func (c *scheduleCache) hydrate(k [32]byte, sel []uint8) {
	c.mu.Lock()
	if len(c.m) < schedCacheMax {
		c.m[k] = sel
	}
	c.mu.Unlock()
}

func (c *scheduleCache) store(k [32]byte, sel []uint8) {
	c.hydrate(k, sel)
	// Write through to the persistent store (no-op when -solvecache-dir is
	// not configured).
	persistEntry(encodeDiskEntry(diskKindSel, k, encodeSelBody(sel)))
}

// ResetScheduleCache empties the in-memory component and whole-schedule
// caches (benchmarks and tests that measure cold-solve behavior). The
// persistent store, if configured, is untouched.
func ResetScheduleCache() {
	schedCache.mu.Lock()
	schedCache.m = make(map[[32]byte][]uint8)
	schedCache.mu.Unlock()
	schedOrderCache.mu.Lock()
	schedOrderCache.m = make(map[[32]byte][]trace.TC)
	schedOrderCache.mu.Unlock()
}

// cacheHasher canonicalizes a component into a sha256 stream.
type cacheHasher struct {
	sum func() [32]byte
	w   func(p []byte)
	buf [binary.MaxVarintLen64]byte
	idx map[trace.TC]int32
}

func newCacheHasher(vars []trace.TC) *cacheHasher {
	h := sha256.New()
	ch := &cacheHasher{
		sum: func() [32]byte {
			var out [32]byte
			h.Sum(out[:0])
			return out
		},
		w:   func(p []byte) { h.Write(p) },
		idx: make(map[trace.TC]int32, len(vars)),
	}
	for i, tc := range vars {
		ch.idx[tc] = int32(i)
	}
	// Variable count plus chain structure: canonical indices are positions
	// in the (thread, counter)-sorted list, so the per-thread chain layout
	// is fully described by the same-thread-as-previous bit vector.
	ch.uint(uint64(len(vars)))
	for i := 1; i < len(vars); i++ {
		if vars[i].Thread == vars[i-1].Thread {
			ch.byte(1)
		} else {
			ch.byte(0)
		}
	}
	return ch
}

func (ch *cacheHasher) byte(b uint8) { ch.w([]byte{b}) }

func (ch *cacheHasher) uint(v uint64) {
	n := binary.PutUvarint(ch.buf[:], v)
	ch.w(ch.buf[:n])
}

func (ch *cacheHasher) tc(t trace.TC) { ch.uint(uint64(ch.idx[t])) }

func (ch *cacheHasher) edges(es [][2]trace.TC) {
	ch.uint(uint64(len(es)))
	for _, e := range es {
		ch.tc(e[0])
		ch.tc(e[1])
	}
}

func (ch *cacheHasher) disjs(ds []disjunction) {
	ch.uint(uint64(len(ds)))
	for _, d := range ds {
		ch.tc(d.a1)
		ch.tc(d.b1)
		ch.tc(d.a2)
		ch.tc(d.b2)
	}
}

// residualCompKey hashes a tier-2 component: chain structure, conjunctive
// edges, seeds (forced + bridges), and residual disjunctions, all in the
// deterministic order problem construction consumes them.
func residualCompKey(c *residualComp) ([32]byte, bool) {
	if !DefaultSolveCache {
		return [32]byte{}, false
	}
	ch := newCacheHasher(c.vars)
	ch.byte(1) // key tag, kept so persisted keys stay valid
	ch.edges(c.conj)
	ch.edges(c.forced)
	ch.edges(c.bridges)
	ch.disjs(c.disj)
	return ch.sum(), true
}
