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

// Persistent solve cache (DESIGN.md §4f). The in-memory whole-schedule
// cache (cache.go) only helps within one process; fuzz campaigns, bench
// sweeps, repeated lightd replay requests, and fleets replaying the same
// workload re-solve identical logs across process boundaries. This file
// spills the cache to disk as a single append-only WAL of CRC-32C frames
// (the internal/trace/frame.go codec the epoch store already uses) and
// hydrates it on open.
//
// Entry layout (frame payload):
//
//	| kind (1 byte) | key (32 bytes) | inner sha256 (32 bytes) | body |
//
// kind 3 is a whole-schedule order (body: uvarint count, then (thread,
// counter) uvarint pairs; key = content hash of the log). Kinds 1 and 2,
// per-component entries of caches that no longer exist, are no longer
// written; a file that still holds them opens fine and counts them as
// rejected. The inner hash covers kind‖key‖body, so an entry whose frame
// CRC was deliberately recomputed around corrupted content is still
// rejected at hydration — and a hit is additionally revalidated with
// CheckSchedule (one pass, sharing no code with synthesis) before use, so
// a poisoned entry can fail closed (recompute) but can never surface a
// schedule the checker rejects.
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

// diskKindSchedule tags a whole-schedule order, keyed by log content hash
// (the only kind written or hydrated).
const diskKindSchedule = 3

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
// solve cache: existing entries are hydrated into the in-memory
// whole-schedule cache, and every future cache miss is written through. budget
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

// persistEntry write-through: called by the in-memory cache on store.
func persistEntry(payload []byte) {
	solveDiskMu.Lock()
	dc := solveDisk
	solveDiskMu.Unlock()
	if dc != nil {
		dc.append(payload)
	}
}

// openDiskCache opens dir/solvecache.wal, recovers its contents, and
// hydrates the in-memory whole-schedule cache.
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
		// The scan stopped at the damage, so only frames before it were
		// hydrated, and those are valid.
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

// decodeDiskEntry validates one payload and, when it is a valid kind-3
// entry, hydrates it into the whole-schedule cache. Returns false for
// rejected entries.
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
	if inner != want || kind != diskKindSchedule {
		return false
	}
	tcs, ok := decodeScheduleBody(body)
	if !ok {
		return false
	}
	schedOrderCache.hydrate(key, tcs)
	return true
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
