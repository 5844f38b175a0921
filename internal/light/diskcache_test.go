package light

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// openSolveDir (re)opens the persistent cache as a fresh process would:
// in-memory caches emptied first, so everything visible afterwards came
// off disk.
func openSolveDir(t *testing.T, dir string, budget int64) *DiskCacheStats {
	t.Helper()
	ResetScheduleCache()
	stats, err := SetSolveCacheDir(dir, budget)
	if err != nil {
		t.Fatalf("SetSolveCacheDir: %v", err)
	}
	return stats
}

func closeSolveDir(t *testing.T) {
	t.Helper()
	if _, err := SetSolveCacheDir("", 0); err != nil {
		t.Fatalf("SetSolveCacheDir(\"\"): %v", err)
	}
}

func walPath(dir string) string { return filepath.Join(dir, solveCacheFile) }

// TestDiskCacheRoundTrip: solves persist across a simulated process
// restart, and the rehydrated schedule is byte-identical to the original.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)
	openSolveDir(t, dir, 0)

	log := residualLog()
	first, hit, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("cold solve reported a cache hit")
	}
	if _, hit, _ := ComputeScheduleCached(log); !hit {
		t.Fatal("warm in-memory solve missed")
	}

	// "New process": drop the in-memory caches, hydrate from disk.
	stats := openSolveDir(t, dir, 0)
	if stats.Entries == 0 {
		t.Fatal("no entries hydrated from disk")
	}
	again, hit, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("hydrated cache missed")
	}
	if d := DiffSchedules(first, again); !d.Equal() {
		t.Fatalf("hydrated schedule differs: %s", d)
	}
}

// TestDiskCacheTornTail: a crash mid-append leaves a partial frame at the
// tail; open must truncate it silently and keep every whole frame.
func TestDiskCacheTornTail(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)
	openSolveDir(t, dir, 0)
	log := residualLog()
	if _, _, err := ComputeScheduleCached(log); err != nil {
		t.Fatal(err)
	}
	closeSolveDir(t)
	before := openSolveDir(t, dir, 0).Entries
	closeSolveDir(t)

	// Append a torn frame: a header promising more payload than follows.
	f, err := os.OpenFile(walPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [trace.FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1024)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	stats := openSolveDir(t, dir, 0)
	if stats.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported as truncated")
	}
	if stats.Entries != before {
		t.Fatalf("torn tail cost whole frames: %d entries, want %d", stats.Entries, before)
	}
	if stats.Quarantined != "" {
		t.Fatalf("torn tail must not quarantine, moved to %s", stats.Quarantined)
	}
	if sched, hit, err := ComputeScheduleCached(log); err != nil || !hit {
		t.Fatalf("cache unusable after truncation: hit=%v err=%v", hit, err)
	} else if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
}

// TestDiskCacheInteriorCorruption: a mangled frame with valid frames after
// it is not a crash artifact; the whole file must be quarantined with the
// typed error and the cache must restart empty but functional.
func TestDiskCacheInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)
	openSolveDir(t, dir, 0)
	log := residualLog()
	// Two whole-schedule frames, so the damaged first one has a valid
	// frame after it.
	for _, l := range []*trace.Log{log, bridgedResidualLog()} {
		if _, _, err := ComputeScheduleCached(l); err != nil {
			t.Fatal(err)
		}
	}
	closeSolveDir(t)

	// Flip a payload byte of the first frame without fixing its CRC.
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < trace.FrameHeaderSize+2 {
		t.Fatalf("wal too small: %d bytes", len(raw))
	}
	raw[trace.FrameHeaderSize+1] ^= 0xff
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetScheduleCache()
	stats, err := SetSolveCacheDir(dir, 0)
	if !errors.Is(err, ErrSolveCacheCorrupt) {
		t.Fatalf("want ErrSolveCacheCorrupt, got %v", err)
	}
	if stats.Quarantined == "" {
		t.Fatal("no quarantine path reported")
	}
	if _, err := os.Stat(stats.Quarantined); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if stats.Entries != 0 {
		t.Fatalf("hydrated %d entries from a corrupt file", stats.Entries)
	}
	// The cache is installed and must work after the quarantine.
	if _, hit, err := ComputeScheduleCached(log); err != nil || hit {
		t.Fatalf("post-quarantine solve: hit=%v err=%v", hit, err)
	}
	if s := openSolveDir(t, dir, 0); s.Entries == 0 {
		t.Fatal("post-quarantine writes did not persist")
	}
}

// TestDiskCacheGCOldestFirst: the byte-budget GC must evict in insertion
// order — the newest entries survive a restart, the oldest do not.
func TestDiskCacheGCOldestFirst(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)

	// Entries of ~1 KiB each against a 4 KiB budget: only the newest few
	// survive. Synthetic whole-schedule orders keep sizes predictable.
	const budget = 4 << 10
	openSolveDir(t, dir, budget)
	keys := make([][32]byte, 8)
	for i := range keys {
		keys[i][0] = byte(i + 1)
		order := make([]trace.TC, 256)
		for j := range order {
			order[j] = trace.TC{Thread: int32(i), Counter: uint64(j)}
		}
		schedOrderCache.store(keys[i], order)
	}
	closeSolveDir(t)

	fi, err := os.Stat(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > budget {
		t.Fatalf("wal is %d bytes, budget %d", fi.Size(), budget)
	}

	openSolveDir(t, dir, budget)
	if _, ok := schedOrderCache.lookup(keys[0]); ok {
		t.Fatal("oldest entry survived the GC")
	}
	if _, ok := schedOrderCache.lookup(keys[len(keys)-1]); !ok {
		t.Fatal("newest entry was evicted")
	}
	// Survivors must be a suffix of the insertion order: once one key is
	// present, every newer key must be too.
	present := false
	for _, k := range keys {
		_, ok := schedOrderCache.lookup(k)
		if present && !ok {
			t.Fatal("eviction skipped an older entry while keeping a newer one... out of order")
		}
		present = present || ok
	}
}

// TestDiskCachePoisonRejected: an entry whose frame CRC was recomputed
// around corrupted content (so the framing layer accepts it) must be
// rejected by the inner content hash at hydration.
func TestDiskCachePoisonRejected(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)
	openSolveDir(t, dir, 0)
	log := residualLog()
	if _, _, err := ComputeScheduleCached(log); err != nil {
		t.Fatal(err)
	}
	closeSolveDir(t)

	// Corrupt the first frame's body and fix up its CRC so the frame
	// itself verifies.
	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	payload := raw[trace.FrameHeaderSize : trace.FrameHeaderSize+int(n)]
	payload[len(payload)-1] ^= 0x01
	binary.LittleEndian.PutUint32(raw[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(walPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	stats := openSolveDir(t, dir, 0)
	if stats.Rejected == 0 {
		t.Fatal("poisoned entry not rejected")
	}
	if stats.Quarantined != "" {
		t.Fatal("entry-level poison must not quarantine the file")
	}
	// Whatever survives, the cache can never hand back a schedule the
	// checker rejects.
	sched, _, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("cache surfaced an invalid schedule: %v", err)
	}
}

// TestDiskCachePoisonedOrderRecomputed: even if a wrong order lands in the
// whole-schedule cache under a log's key, the hit-time CheckSchedule
// validation drops it and recomputes — the caller can never observe an
// invalid schedule, only a slower solve.
func TestDiskCachePoisonedOrderRecomputed(t *testing.T) {
	defer closeSolveDir(t)
	openSolveDir(t, t.TempDir(), 0)
	log := residualLog()
	good, _, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}

	// Reverse the cached order in place under the correct key.
	key := logScheduleKey(log)
	bad := make([]trace.TC, len(good.Order))
	for i, tc := range good.Order {
		bad[len(bad)-1-i] = tc
	}
	schedOrderCache.hydrate(key, bad)

	sched, hit, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("poisoned order served as a hit")
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("recomputed schedule invalid: %v", err)
	}
	if d := DiffSchedules(good, sched); !d.Equal() {
		t.Fatalf("recomputed schedule differs from the clean solve: %s", d)
	}
	// And a foreign order (valid for some other log) is equally rejected.
	other := bridgedResidualLog()
	otherSched, err := ComputeSchedule(other)
	if err != nil {
		t.Fatal(err)
	}
	schedOrderCache.hydrate(key, otherSched.Order)
	if _, hit, _ := ComputeScheduleCached(log); hit {
		t.Fatal("foreign order served as a hit")
	}
}

// TestDiskCacheKeyStable pins one whole-schedule key: logScheduleKey still
// hashes the tag an earlier engine-aware version wrote first, so schedules
// persisted by that version keep hitting.
func TestDiskCacheKeyStable(t *testing.T) {
	k := logScheduleKey(residualLog())
	const want = "f1ff01f045987bd3ddb93f0567fabaf30f88d5e115429f6353889aeeb2c51e44"
	if got := hex.EncodeToString(k[:]); got != want {
		t.Fatalf("logScheduleKey = %s, want %s", got, want)
	}
}

// TestDiskCacheLegacyKindSkipped: a cache file written by an earlier
// version may hold kind-1 frames (residual-component selections) and
// kind-2 frames (component orders), both of caches that no longer exist.
// Opening it must not fail: both frames count as rejected and the kind-3
// whole-schedule frame still hits.
func TestDiskCacheLegacyKindSkipped(t *testing.T) {
	dir := t.TempDir()
	defer closeSolveDir(t)
	openSolveDir(t, dir, 0)
	log := residualLog()
	if _, _, err := ComputeScheduleCached(log); err != nil {
		t.Fatal(err)
	}
	closeSolveDir(t)

	raw, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := trace.ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule) != len(raw)-trace.FrameHeaderSize || schedule[0] != diskKindSchedule {
		t.Fatalf("unexpected cache file: %d bytes, first frame kind %d", len(raw), schedule[0])
	}
	// Well-formed legacy frames as the earlier version wrote them. Kind-1
	// body: uvarint count, one 0/1 byte per residual disjunction. Kind-2
	// body: uvarint resolved, uvarint count, canonical indices.
	sel := encodeDiskEntry(1, [32]byte{1}, []byte{3, 0, 1, 1})
	order := encodeDiskEntry(2, [32]byte{2}, []byte{0, 2, 1, 0})
	var buf []byte
	for _, p := range [][]byte{sel, order, schedule} {
		buf = trace.AppendFrame(buf, p)
	}
	if err := os.WriteFile(walPath(dir), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	stats := openSolveDir(t, dir, 0)
	if stats.Rejected != 2 || stats.Entries != 1 || stats.Quarantined != "" {
		t.Fatalf("open stats %+v, want 2 rejected, 1 entry, no quarantine", stats)
	}
	sched, hit, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("whole-schedule frame did not hydrate")
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
}
