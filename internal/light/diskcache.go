package light

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/trace"
)

// Persistent solve cache (DESIGN.md §4f). The in-memory component cache
// (cache.go) only helps within one process; fuzz campaigns, bench sweeps,
// repeated lightd replay requests, and fleets replaying the same workload
// re-solve identical structures across process boundaries. This file spills
// the cache to disk as a single append-only WAL of CRC-32C frames (the
// internal/trace/frame.go codec the epoch store already uses) and hydrates
// it on open.
//
// Entry layout (frame payload):
//
//	| kind (1 byte) | key (32 bytes) | inner sha256 (32 bytes) | body |
//
// kind 1 is a residual component selection (body: uvarint count, then one
// 0/1 byte per residual disjunction), kind 3 a whole-schedule order (body:
// uvarint count, then (thread, counter) uvarint pairs; key = content hash
// of the log). Kind 2, a component order of an engine that no longer
// exists, is no longer written; a file that still holds one opens fine and
// counts it as rejected. The inner hash covers
// kind‖key‖body, so an entry whose frame CRC was deliberately recomputed
// around corrupted content is still rejected at hydration — and a kind-3
// hit is additionally revalidated with CheckSchedule (one pass, sharing no
// code with synthesis) before use, so a poisoned entry can fail closed
// (recompute) but can never surface a schedule the checker rejects.
//
// Failure policy mirrors the epoch store: a torn tail frame (crash mid-
// append) is truncated silently on open; interior corruption — a mangled
// frame with valid frames after it, which no clean crash produces — moves
// the whole file aside (quarantine) and reports ErrSolveCacheCorrupt while
// the cache restarts empty. The byte budget GC evicts oldest-first by
// rewriting the retained tail; in-memory copies of evicted entries survive
// until process exit, only the cross-run copy is dropped. Appends are not
// fsynced: losing the tail of a cache costs time, never correctness.

// DefaultSolveCacheBytes is the persistent cache's default byte budget
// (the -solvecache-dir stores at most this many bytes, GC'd oldest-first).
const DefaultSolveCacheBytes = 64 << 20

// ErrSolveCacheCorrupt reports interior corruption in the persistent solve
// cache: the damaged file was quarantined (moved aside) and the cache
// reopened empty. Callers test with errors.Is and may continue — the cache
// is functional after the error.
var ErrSolveCacheCorrupt = errors.New("light: persistent solve cache corrupt")

// solveCacheFile is the WAL's file name inside the cache directory.
const solveCacheFile = "solvecache.wal"

// Persisted entry kinds.
const (
	diskKindSel      = 1 // residual component selection
	diskKindSchedule = 3 // whole-schedule order, keyed by log content hash
)

// DiskCacheStats describes the persistent store right after open.
type DiskCacheStats struct {
	// Entries hydrated and Bytes retained on disk.
	Entries int
	Bytes   int64
	// TruncatedBytes dropped from a torn tail, if any.
	TruncatedBytes int64
	// Rejected counts CRC-valid entries that failed content validation
	// (poisoned or format-drifted); they are skipped, not fatal.
	Rejected int
	// Quarantined is the path the corrupt file was moved to, when interior
	// corruption forced a quarantine ("" otherwise).
	Quarantined string
}

// diskEntry is one retained frame, oldest first.
type diskEntry struct {
	payload []byte
}

// diskCache is the persistent store. All methods are mutex-guarded; the
// write path is append-only except for the GC rewrite.
type diskCache struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	budget  int64
	size    int64
	entries []diskEntry
}

// solveDisk is the process-wide persistent store, nil when disabled.
var (
	solveDiskMu sync.Mutex
	solveDisk   *diskCache
)

// SetSolveCacheDir installs (or, with dir == "", removes) the persistent
// solve cache: existing entries are hydrated into the in-memory caches,
// and every future component or schedule solve is written through. budget
// <= 0 means DefaultSolveCacheBytes. The returned stats describe what was
// recovered; an ErrSolveCacheCorrupt error reports a quarantined file, in
// which case the cache is still installed (empty) and usable.
func SetSolveCacheDir(dir string, budget int64) (*DiskCacheStats, error) {
	solveDiskMu.Lock()
	defer solveDiskMu.Unlock()
	if solveDisk != nil {
		solveDisk.close()
		solveDisk = nil
	}
	if dir == "" {
		return &DiskCacheStats{}, nil
	}
	if budget <= 0 {
		budget = DefaultSolveCacheBytes
	}
	dc, stats, err := openDiskCache(dir, budget)
	if dc != nil {
		solveDisk = dc
	}
	return stats, err
}

// persistEntry write-through: called by the in-memory caches on store.
func persistEntry(payload []byte) {
	solveDiskMu.Lock()
	dc := solveDisk
	solveDiskMu.Unlock()
	if dc != nil {
		dc.append(payload)
	}
}

// openDiskCache opens dir/solvecache.wal, recovers its contents, and
// hydrates the in-memory caches.
func openDiskCache(dir string, budget int64) (*diskCache, *DiskCacheStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("light: solve cache dir: %w", err)
	}
	path := filepath.Join(dir, solveCacheFile)
	stats := &DiskCacheStats{}

	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("light: solve cache read: %w", err)
	}

	var (
		entries   []diskEntry
		goodOff   int64 // offset just past the last frame worth keeping
		sawBad    bool  // a checksum-mangled frame was seen
		interior  bool  // ...and a valid frame followed it
		truncated int64
	)
	r := bytes.NewReader(raw)
	total := int64(len(raw))
	for {
		payload, rerr := trace.ReadFrame(r)
		off := total - int64(r.Len())
		if rerr == io.EOF {
			break
		}
		if errors.Is(rerr, trace.ErrTornFrame) || errors.Is(rerr, trace.ErrFrameTooLarge) {
			// Can't resync past a torn or length-mangled frame; everything
			// from here is the tail.
			truncated = total - goodOff
			break
		}
		if errors.Is(rerr, trace.ErrFrameChecksum) {
			// Fully-present frame, bad content: remember and keep reading —
			// a valid frame after it proves interior corruption.
			sawBad = true
			continue
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("light: solve cache read: %w", rerr)
		}
		if sawBad {
			interior = true
			break
		}
		if decodeDiskEntry(payload) {
			stats.Entries++
		} else {
			stats.Rejected++
			mDiskCacheRejected.Inc()
		}
		entries = append(entries, diskEntry{payload: payload})
		goodOff = off
	}
	if sawBad && !interior {
		// Mangled frames with nothing valid after them: a torn tail in
		// checksum clothing (crash inside the payload write). Truncate.
		truncated = total - goodOff
	}

	if interior {
		// Interior corruption: quarantine the whole file and restart empty.
		qpath := path + ".corrupt"
		for i := 1; ; i++ {
			if _, err := os.Stat(qpath); os.IsNotExist(err) {
				break
			}
			qpath = fmt.Sprintf("%s.corrupt.%d", path, i)
		}
		if err := os.Rename(path, qpath); err != nil {
			return nil, nil, fmt.Errorf("light: solve cache quarantine: %w", err)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		dropHydrated()
		return &diskCache{path: path, f: f, budget: budget},
			&DiskCacheStats{Quarantined: qpath},
			fmt.Errorf("%w: interior frame damage, quarantined to %s", ErrSolveCacheCorrupt, qpath)
	}

	if truncated > 0 {
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, nil, fmt.Errorf("light: solve cache truncate: %w", err)
		}
		stats.TruncatedBytes = truncated
	}

	dc := &diskCache{path: path, budget: budget, entries: entries, size: goodOff}
	if dc.size > dc.budget {
		if err := dc.compact(); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	dc.f = f
	stats.Bytes = dc.size
	mDiskCacheHydrated.Add(uint64(stats.Entries))
	return dc, stats, nil
}

// dropHydrated empties the in-memory caches; used when a quarantine means
// previously-hydrated state (none, on a fresh open) must not leak.
func dropHydrated() {
	// Hydration happens during decode, before quarantine can be decided —
	// but interior corruption aborts the scan before any frame past the
	// damage, and frames before it are genuinely valid. Nothing to drop;
	// kept as an explicit decision point.
}

func (dc *diskCache) close() {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.f != nil {
		dc.f.Close()
		dc.f = nil
	}
}

// append writes one entry frame through to disk and runs the byte-budget
// GC when the file outgrows it.
func (dc *diskCache) append(payload []byte) {
	frame := trace.AppendFrame(nil, payload)
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.f == nil {
		return
	}
	if _, err := dc.f.Write(frame); err != nil {
		// A failing cache write disables persistence; correctness never
		// depended on it.
		dc.f.Close()
		dc.f = nil
		return
	}
	dc.size += int64(len(frame))
	dc.entries = append(dc.entries, diskEntry{payload: payload})
	mDiskCacheAppends.Inc()
	if dc.size > dc.budget {
		if dc.f != nil {
			dc.f.Close()
			dc.f = nil
		}
		if err := dc.compact(); err != nil {
			return
		}
		f, err := os.OpenFile(dc.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		dc.f = f
	}
}

// compact drops entries oldest-first until the retained frames fit the
// budget, then atomically rewrites the file. Callers hold dc.mu (or own
// the cache exclusively during open).
func (dc *diskCache) compact() error {
	keep := dc.entries
	size := int64(0)
	for i := range keep {
		size += trace.FrameSize(len(keep[i].payload))
	}
	evicted := 0
	for len(keep) > 0 && size > dc.budget {
		size -= trace.FrameSize(len(keep[0].payload))
		keep = keep[1:]
		evicted++
	}
	var buf []byte
	for i := range keep {
		buf = trace.AppendFrame(buf, keep[i].payload)
	}
	tmp := dc.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dc.path); err != nil {
		return err
	}
	dc.entries = append([]diskEntry(nil), keep...)
	dc.size = size
	mDiskCacheEvicted.Add(uint64(evicted))
	return nil
}

// encodeDiskEntry frames kind‖key‖inner‖body with the inner content hash.
func encodeDiskEntry(kind byte, key [32]byte, body []byte) []byte {
	h := sha256.New()
	h.Write([]byte{kind})
	h.Write(key[:])
	h.Write(body)
	var inner [32]byte
	h.Sum(inner[:0])
	out := make([]byte, 0, 1+32+32+len(body))
	out = append(out, kind)
	out = append(out, key[:]...)
	out = append(out, inner[:]...)
	return append(out, body...)
}

// decodeDiskEntry validates one payload and, when valid, hydrates it into
// the matching in-memory cache. Returns false for rejected entries.
func decodeDiskEntry(payload []byte) bool {
	if len(payload) < 1+32+32 {
		return false
	}
	kind := payload[0]
	var key, inner [32]byte
	copy(key[:], payload[1:33])
	copy(inner[:], payload[33:65])
	body := payload[65:]
	h := sha256.New()
	h.Write([]byte{kind})
	h.Write(key[:])
	h.Write(body)
	var want [32]byte
	h.Sum(want[:0])
	if inner != want {
		return false
	}
	switch kind {
	case diskKindSel:
		sel, ok := decodeSelBody(body)
		if !ok {
			return false
		}
		schedCache.hydrate(key, sel)
		return true
	case diskKindSchedule:
		tcs, ok := decodeScheduleBody(body)
		if !ok {
			return false
		}
		schedOrderCache.hydrate(key, tcs)
		return true
	}
	return false
}

func encodeSelBody(sel []uint8) []byte {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, len(sel)+4)
	n := binary.PutUvarint(buf[:], uint64(len(sel)))
	out = append(out, buf[:n]...)
	return append(out, sel...)
}

func decodeSelBody(body []byte) ([]uint8, bool) {
	n, w := binary.Uvarint(body)
	if w <= 0 || uint64(len(body)-w) != n {
		return nil, false
	}
	sel := make([]uint8, n)
	copy(sel, body[w:])
	for _, s := range sel {
		if s > 1 {
			return nil, false
		}
	}
	return sel, true
}

func encodeScheduleBody(order []trace.TC) []byte {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 4*len(order)+4)
	n := binary.PutUvarint(buf[:], uint64(len(order)))
	out = append(out, buf[:n]...)
	for _, tc := range order {
		n = binary.PutUvarint(buf[:], uint64(uint32(tc.Thread)))
		out = append(out, buf[:n]...)
		n = binary.PutUvarint(buf[:], tc.Counter)
		out = append(out, buf[:n]...)
	}
	return out
}

func decodeScheduleBody(body []byte) ([]trace.TC, bool) {
	n, w := binary.Uvarint(body)
	if w <= 0 || n > uint64(len(body)) {
		return nil, false
	}
	body = body[w:]
	order := make([]trace.TC, n)
	for i := range order {
		th, w := binary.Uvarint(body)
		if w <= 0 || th > uint64(maxThreadID) {
			return nil, false
		}
		body = body[w:]
		c, w := binary.Uvarint(body)
		if w <= 0 {
			return nil, false
		}
		body = body[w:]
		order[i] = trace.TC{Thread: int32(uint32(th)), Counter: c}
	}
	if len(body) != 0 {
		return nil, false
	}
	return order, true
}

// ---- Whole-schedule cache ----------------------------------------------

// schedOrderStore caches complete schedule orders keyed by log content
// hash. On the sweep workloads 100% of components resolve by propagation,
// so the component cache alone cannot make a repeated replay cheap — the
// propagation pass itself is the cost. Caching the final order makes the
// second solve of an identical log O(validate), which is what the epoch
// replay path and the bench sweep's cross-run hit rate measure.
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

func (c *schedOrderStore) hydrate(k [32]byte, tcs []trace.TC) {
	c.mu.Lock()
	if len(c.m) < schedCacheMax {
		c.m[k] = tcs
	}
	c.mu.Unlock()
}

func (c *schedOrderStore) store(k [32]byte, tcs []trace.TC) {
	c.hydrate(k, tcs)
	persistEntry(encodeDiskEntry(diskKindSchedule, k, encodeScheduleBody(tcs)))
}

func (c *schedOrderStore) drop(k [32]byte) {
	c.mu.Lock()
	delete(c.m, k)
	c.mu.Unlock()
}

// logScheduleKey content-addresses a log for whole-schedule caching: the
// schedule is a deterministic function of the dep/range content. The
// leading tag 1 is kept so whole-schedule keys persisted by earlier
// versions still hit.
func logScheduleKey(log *trace.Log) [32]byte {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	u := func(v uint64) {
		n := binary.PutUvarint(buf[:], v)
		h.Write(buf[:n])
	}
	u(1)
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
// the schedule came from the cache.
func ComputeScheduleCached(log *trace.Log) (*Schedule, bool, error) {
	if !DefaultSolveCache {
		sched, err := ComputeSchedule(log)
		return sched, false, err
	}
	key := logScheduleKey(log)
	if order, ok := schedOrderCache.lookup(key); ok {
		sched := newSchedule(log, order, ScheduleStats{IntVars: len(order), CacheHits: 1})
		if err := CheckSchedule(log, sched); err == nil {
			mScheduleCacheHits.Inc()
			return sched, true, nil
		}
		// Fail closed: drop the poisoned entry and recompute.
		schedOrderCache.drop(key)
		mDiskCacheRejected.Inc()
	}
	sched, err := ComputeSchedule(log)
	if err != nil {
		return nil, false, err
	}
	schedOrderCache.store(key, sched.Order)
	mScheduleCacheMisses.Inc()
	return sched, false, nil
}
