// Package epoch turns Light's one-shot record→solve→replay pipeline into an
// always-on recording service: a workload is recorded continuously, the
// stream of record runs is cut into bounded epochs, and each epoch is sealed
// into a crash-safe WAL-style segment file that can be replayed on demand
// long after the fact ("what happened in the last few seconds before this
// failure?" — the rr/iReplayer operating mode, see PAPERS.md).
//
// The package has four layers:
//
//   - segment.go — the on-disk segment format: length-prefixed CRC-32C
//     frames (trace.WriteFrame) holding a header, run records (run metadata
//   - the trace-encoded log), periodic checkpoints that bound data loss,
//     and a seal record that closes the epoch. Recovery truncates a torn
//     tail and fails typed on interior corruption (DESIGN.md §9).
//   - store.go — the segment directory: epoch numbering across restarts,
//     startup recovery of every segment, and retention GC that keeps the
//     on-disk window bounded.
//   - manager.go — the recording session: a loop of complete record runs
//     (light.Record, each closing all its open O1 runs, with the heap
//     fingerprint of its final state), cut into epochs by run count or
//     wall-clock interval; each cut seals the segment.
//   - replay.go — on-demand replay: recompile the stored source, recompute
//     the instrumentation mask, replay any retained epoch's runs, and
//     verify both bug reproduction (Definition 3.3) and the recorded heap
//     fingerprints.
//
// cmd/lightd serves all of this over HTTP; docs/OPERATIONS.md is the
// operator guide.
package epoch

import (
	"errors"
	"fmt"
)

// FormatVersion is the segment file format version stamped into every
// header record; readers accept every version from 1 up to this one and
// reject anything newer rather than misparse. Version history:
//
//	1 — original layout: header / run / checkpoint / seal records.
//	2 — adds the 'T' telemetry record sealed before 'S' (the per-epoch
//	    stats frame). v1 segments remain fully readable; their telemetry
//	    rows are synthesized from run metadata (SynthesizeTelemetry).
//	3 — 'R' records carry LIGHTLOG2 run logs (trace.Encode); v1 and v2
//	    segments carry LIGHTLOG1. trace.Decode reads both, so every older
//	    segment stays readable, while a v2 reader rejects a v3 segment at
//	    its header instead of failing on the first run log.
const FormatVersion = 3

// State is an epoch's lifecycle position (DESIGN.md §9 state machine).
type State string

// Epoch lifecycle states. Open epochs are accepting runs; Sealed epochs are
// immutable and replayable; Corrupt epochs failed strict reading and are
// retained for inspection but refuse replay.
const (
	StateOpen    State = "open"
	StateSealed  State = "sealed"
	StateCorrupt State = "corrupt"
)

// Typed recovery and lookup errors. The crash-recovery contract
// (DESIGN.md §9): a torn tail is truncated silently because a crash
// mid-append is the expected failure mode; everything else is reported,
// never dropped.
var (
	// ErrEmptySegment reports a segment file with no complete header —
	// the husk of a crash between file creation and the first fsync. The
	// store deletes such husks at startup and reuses the epoch ID.
	ErrEmptySegment = errors.New("epoch: empty segment (no durable header)")
	// ErrCorruptSegment reports interior corruption: a record that fails
	// its checksum (or declares an absurd length) with valid data after
	// it. A clean crash never produces this shape, so recovery refuses
	// to guess and surfaces the segment as StateCorrupt.
	ErrCorruptSegment = errors.New("epoch: segment corrupt before tail")
	// ErrCheckpointLost reports recovery that truncated away runs the
	// last checkpoint had already promised durable — fsynced data is
	// missing, which is disk-level loss, not a crash artifact.
	ErrCheckpointLost = errors.New("epoch: recovery lost runs behind a durable checkpoint")
	// ErrBadRecord reports a frame whose checksum is valid but whose
	// payload does not decode (wrong type byte, mangled JSON, bad log).
	ErrBadRecord = errors.New("epoch: undecodable record")
	// ErrNoEpoch reports a lookup of an epoch ID the store does not
	// retain (never existed, or pruned by retention GC).
	ErrNoEpoch = errors.New("epoch: no such epoch")
	// ErrEpochOpen reports an attempt to load or replay the epoch that
	// is still accepting runs; only sealed epochs are replayable.
	ErrEpochOpen = errors.New("epoch: epoch still open")
	// ErrSessionActive reports an attempt to start a second concurrent
	// recording session; lightd records one workload at a time.
	ErrSessionActive = errors.New("epoch: a recording session is already active")
)

// Meta is the store's catalog entry for one epoch.
type Meta struct {
	// ID is the epoch's monotonically increasing number, unique across
	// daemon restarts (the store resumes numbering above the highest
	// segment found on disk).
	ID uint64 `json:"id"`
	// State is the lifecycle position: open, sealed, or corrupt.
	State State `json:"state"`
	// Recovered marks an epoch sealed by crash recovery rather than a
	// clean cut: the daemon died while the epoch was open, and startup
	// sealed whatever the WAL had retained.
	Recovered bool `json:"recovered,omitempty"`
	// Torn marks an epoch whose recovery truncated a torn tail frame.
	Torn bool `json:"torn,omitempty"`
	// Runs is the number of complete record runs the epoch retains.
	Runs int `json:"runs"`
	// Bytes is the segment file size on disk.
	Bytes int64 `json:"bytes"`
	// CreatedUnixNS and SealedUnixNS bound the epoch's wall-clock window
	// (SealedUnixNS is zero while open).
	CreatedUnixNS int64 `json:"created_unix_ns"`
	SealedUnixNS  int64 `json:"sealed_unix_ns,omitempty"`
	// Workload names the recorded workload (the session's workload name,
	// or "source" for ad-hoc programs).
	Workload string `json:"workload"`
	// SeedBase is the session's base seed; run i used SeedBase+Index.
	SeedBase uint64 `json:"seed_base"`
	// Fingerprint is the heap fingerprint snapshotted at the epoch cut —
	// the final state of the epoch's last run (vm.HeapFingerprint).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Err carries the typed recovery error text for corrupt epochs.
	Err string `json:"error,omitempty"`
	// Path is the segment file's location on disk.
	Path string `json:"-"`
}

// String renders the catalog entry for logs and the lightd status page.
func (m Meta) String() string {
	return fmt.Sprintf("epoch %d [%s] runs=%d bytes=%d workload=%s", m.ID, m.State, m.Runs, m.Bytes, m.Workload)
}
