package light

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/trace"
)

// Whole-schedule cache (DESIGN.md §4f). Epoch replay, pre-solve, lightd
// and the bench sweep re-solve identical logs; propagation is most of the
// cost of those solves, so the cache stores the final order keyed by the
// log's content. A hit is revalidated with CheckSchedule before use.

// schedCacheMax bounds the entry count; at the cap the cache stops
// admitting new entries (eviction would only change hit rates, and a full
// reset on overflow would make hit rates load-order-dependent in tests).
const schedCacheMax = 4096

// schedOrderStore caches complete schedule orders keyed by log content
// hash. Entries are immutable after store.
type schedOrderStore struct {
	mu sync.Mutex
	m  map[[32]byte][]trace.TC
}

var schedOrderCache = &schedOrderStore{m: make(map[[32]byte][]trace.TC)}

func (c *schedOrderStore) lookup(k [32]byte) ([]trace.TC, bool) {
	c.mu.Lock()
	tcs, ok := c.m[k]
	c.mu.Unlock()
	return tcs, ok
}

func (c *schedOrderStore) store(k [32]byte, tcs []trace.TC) {
	c.mu.Lock()
	if len(c.m) < schedCacheMax {
		c.m[k] = tcs
	}
	c.mu.Unlock()
}

func (c *schedOrderStore) drop(k [32]byte) {
	c.mu.Lock()
	delete(c.m, k)
	c.mu.Unlock()
}

// ResetScheduleCache empties the whole-schedule cache (benchmarks and
// tests that measure cold-solve behavior).
func ResetScheduleCache() {
	schedOrderCache.mu.Lock()
	schedOrderCache.m = make(map[[32]byte][]trace.TC)
	schedOrderCache.mu.Unlock()
}

// logScheduleKey content-addresses a log for whole-schedule caching: the
// schedule is a deterministic function of the dep/range content.
func logScheduleKey(log *trace.Log) [32]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	u := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	u(uint64(len(log.Threads)))
	u(uint64(uint32(log.NumLocs)))
	u(uint64(len(log.Deps)))
	for _, d := range log.Deps {
		u(uint64(uint32(d.Loc)))
		u(uint64(uint32(d.W.Thread)))
		u(d.W.Counter)
		u(uint64(uint32(d.R.Thread)))
		u(d.R.Counter)
	}
	u(uint64(len(log.Ranges)))
	for _, rg := range log.Ranges {
		u(uint64(uint32(rg.Loc)))
		u(uint64(uint32(rg.Thread)))
		u(rg.Start)
		u(rg.End)
		u(uint64(uint32(rg.W.Thread)))
		u(rg.W.Counter)
		if rg.HasWrite {
			u(1)
		} else {
			u(0)
		}
		if rg.StartsWithRead {
			u(1)
		} else {
			u(0)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ComputeScheduleCached is ComputeSchedule behind the whole-schedule
// cache: a hit skips synthesis and pays only CheckSchedule's one-pass
// revalidation of the cached order — a poisoned or stale entry is dropped
// and recomputed, it can never surface an invalid schedule. Returns whether
// the schedule came from the cache. A caller that wants a cold solve calls
// ComputeSchedule.
func ComputeScheduleCached(log *trace.Log) (*Schedule, bool, error) {
	key := logScheduleKey(log)
	if order, ok := schedOrderCache.lookup(key); ok {
		sched := newSchedule(log, order, ScheduleStats{IntVars: len(order)})
		if err := CheckSchedule(log, sched); err == nil {
			mScheduleCacheHits.Inc()
			return sched, true, nil
		}
		// Fail closed: drop the poisoned entry and recompute (counted as
		// the miss it becomes).
		schedOrderCache.drop(key)
	}
	sched, err := ComputeSchedule(log)
	if err != nil {
		return nil, false, err
	}
	schedOrderCache.store(key, sched.Order)
	mScheduleCacheMisses.Inc()
	return sched, false, nil
}
