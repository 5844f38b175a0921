package epoch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

// Segment file layout (the byte-level diagram lives in DESIGN.md §9):
//
//	segment  := frame(header) frame(record)*
//	frame    := u32 length | u32 crc32c | payload            (trace/frame.go)
//	payload  := type-byte body
//	header   := 'H' json(Header)
//	run      := 'R' u32 metaLen | json(RunMeta) | trace.Encode(log)
//	                      (LIGHTLOG2 from format v3 on, LIGHTLOG1 before)
//	checkpoint := 'C' json(Checkpoint)
//	telemetry  := 'T' json(Telemetry)                        (format v2+)
//	seal     := 'S' json(Seal)
//
// The file is fsynced after the header, after every checkpoint, and at the
// seal; runs between checkpoints ride on the OS page cache, so a crash may
// lose at most the runs recorded since the last checkpoint — never a run a
// checkpoint has promised (recovery enforces this, see ErrCheckpointLost).
//
// Sealing a v2 segment writes the telemetry frame immediately before the
// seal frame: the epoch's durable stats row rides the same final sync as
// the seal. The pre-seal data flush is timed separately (Telemetry.SealNS)
// *before* the 'T' frame is built, so the row can report the flush cost it
// is about to be sealed behind (DESIGN.md §7).
const (
	recHeader     = 'H'
	recRun        = 'R'
	recCheckpoint = 'C'
	recTelemetry  = 'T'
	recSeal       = 'S'
)

// Header is the segment's first record: everything replay needs to rebuild
// the execution environment without the daemon's in-memory state — the
// workload source is embedded so a retained epoch outlives config changes.
type Header struct {
	// Version is the segment format version (FormatVersion).
	Version int `json:"version"`
	// EpochID is the epoch's store-assigned number.
	EpochID uint64 `json:"epoch_id"`
	// CreatedUnixNS is the epoch's open time.
	CreatedUnixNS int64 `json:"created_unix_ns"`
	// Workload is the workload name ("source" for ad-hoc programs).
	Workload string `json:"workload"`
	// Source is the full MiniJ program text; replay recompiles it.
	Source string `json:"source"`
	// SeedBase is the session's base seed (run i runs at SeedBase+i).
	SeedBase uint64 `json:"seed_base"`
	// O1 and O2 record the reduction configuration, so replay recomputes
	// the identical instrumentation mask from the same source.
	O1 bool `json:"o1"`
	O2 bool `json:"o2"`
	// SleepUnit is the record-run sleep scaling (vm sleep builtin).
	SleepUnit int64 `json:"sleep_unit,omitempty"`
}

// RunMeta is the per-run record metadata stored ahead of the encoded log.
type RunMeta struct {
	// Index is the run's position within its epoch, starting at 0.
	Index int `json:"index"`
	// Seed is the VM seed the run executed under.
	Seed uint64 `json:"seed"`
	// StartUnixNS and WallNS place and size the run in wall-clock time.
	StartUnixNS int64 `json:"start_unix_ns"`
	WallNS      int64 `json:"wall_ns"`
	// Fingerprint is the run's final heap fingerprint (vm.HeapFingerprint),
	// the value replay verification must reproduce.
	Fingerprint string `json:"fingerprint"`
	// Bugs counts the failures the record run observed.
	Bugs int `json:"bugs"`
	// Events and SpaceLongs summarize the log without decoding it.
	Events     int   `json:"events"`
	SpaceLongs int64 `json:"space_longs"`
}

// RunRecord pairs one run's metadata with its decoded log.
type RunRecord struct {
	Meta RunMeta
	Log  *trace.Log
}

// Checkpoint is the periodic durability marker: everything up to and
// including run Runs-1 has been fsynced when this record hits the disk.
type Checkpoint struct {
	// Runs is the count of runs durable at this checkpoint.
	Runs int `json:"runs"`
	// Fingerprint is the heap fingerprint of the last durable run.
	Fingerprint string `json:"fingerprint"`
	// UnixNS is the checkpoint's wall-clock time.
	UnixNS int64 `json:"unix_ns"`
}

// Seal closes an epoch: no further runs may be appended, and the epoch
// becomes replayable.
type Seal struct {
	// Runs is the epoch's final run count.
	Runs int `json:"runs"`
	// UnixNS is the cut's wall-clock time.
	UnixNS int64 `json:"unix_ns"`
	// Fingerprint is the heap fingerprint snapshotted at the cut (the
	// last run's final heap).
	Fingerprint string `json:"fingerprint"`
	// Recovered marks a seal written by crash recovery, not a clean cut.
	Recovered bool `json:"recovered,omitempty"`
}

// Segment is an open, appendable segment file (one epoch being recorded).
type Segment struct {
	f    *os.File
	path string
	hdr  Header
	// runs and size mirror the durable file state for the store's Meta.
	runs            int
	size            int64
	sinceCheckpoint int
	checkpointEvery int
	lastFingerprint string
	nowNS           func() int64
	// Telemetry tally, accumulated from appended run metadata so the seal
	// can build the epoch's stats row without re-reading the file.
	events     int
	spaceLongs int64
	bugs       int
	recordNS   int64
	fsyncs     int
}

// CreateSegment creates the epoch's segment file, writes and fsyncs the
// header frame, and returns the open segment. checkpointEvery is the run
// count between durability checkpoints (min 1).
func CreateSegment(path string, hdr Header, checkpointEvery int, nowNS func() int64) (*Segment, error) {
	if checkpointEvery < 1 {
		checkpointEvery = 1
	}
	hdr.Version = FormatVersion
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Segment{f: f, path: path, hdr: hdr, checkpointEvery: checkpointEvery, nowNS: nowNS}
	payload, err := jsonRecord(recHeader, hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := s.writeFrame(payload, true); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Path returns the segment file's location.
func (s *Segment) Path() string { return s.path }

// Runs returns the number of runs appended so far.
func (s *Segment) Runs() int { return s.runs }

// Size returns the segment's current on-disk size in bytes.
func (s *Segment) Size() int64 { return s.size }

// AppendRun appends one run record (metadata + encoded log) and writes a
// durability checkpoint every checkpointEvery runs.
func (s *Segment) AppendRun(meta RunMeta, log *trace.Log) error {
	meta.Index = s.runs
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.WriteByte(recRun)
	var lenWord [4]byte
	binary.LittleEndian.PutUint32(lenWord[:], uint32(len(metaJSON)))
	buf.Write(lenWord[:])
	buf.Write(metaJSON)
	if err := trace.Encode(&buf, log); err != nil {
		return err
	}
	if err := s.writeFrame(buf.Bytes(), false); err != nil {
		return err
	}
	s.runs++
	s.sinceCheckpoint++
	s.lastFingerprint = meta.Fingerprint
	s.events += meta.Events
	s.spaceLongs += meta.SpaceLongs
	s.bugs += meta.Bugs
	s.recordNS += meta.WallNS
	mRunsRecorded.Inc()
	if s.sinceCheckpoint >= s.checkpointEvery {
		return s.writeCheckpoint()
	}
	return nil
}

// writeCheckpoint emits a checkpoint frame and fsyncs: every run before it
// becomes a durability promise recovery is entitled to enforce.
func (s *Segment) writeCheckpoint() error {
	payload, err := jsonRecord(recCheckpoint, Checkpoint{
		Runs: s.runs, Fingerprint: s.lastFingerprint, UnixNS: s.nowNS(),
	})
	if err != nil {
		return err
	}
	if err := s.writeFrame(payload, true); err != nil {
		return err
	}
	s.sinceCheckpoint = 0
	mCheckpoints.Inc()
	return nil
}

// SealSegment seals the epoch: a timed data flush, the telemetry frame,
// the seal frame, a final fsync, and close. The segment must not be used
// afterwards.
//
// sess carries the session-scoped telemetry fields (obs-registry deltas,
// native baseline, ttfr); the segment fills in everything it tallied
// itself (runs, bytes, events, fsyncs, the flush time). A nil sess — the
// store sealing without a session, or crash recovery — produces a Partial
// row from the tally alone.
func (s *Segment) SealSegment(recovered bool, sess *Telemetry) (Seal, Telemetry, error) {
	// Flush the epoch's data first, timed: this sync covers every run
	// frame still in the page cache and is the dominant cost of a cut,
	// and doing it before building the row lets the row carry its cost.
	flushStart := s.nowNS()
	if err := s.f.Sync(); err != nil {
		return Seal{}, Telemetry{}, err
	}
	s.fsyncs++
	mFsyncs.Inc()
	sealNS := s.nowNS() - flushStart
	mSealNS.Observe(sealNS)

	now := s.nowNS()
	tele := Telemetry{
		EpochID: s.hdr.EpochID, UnixNS: now, Runs: s.runs,
		WallNS: now - s.hdr.CreatedUnixNS, Bytes: s.size,
		Events: s.events, SpaceLongs: s.spaceLongs, Bugs: s.bugs,
		RecordNS: s.recordNS, Fsyncs: s.fsyncs, SealNS: sealNS,
		Recovered: recovered,
	}
	if sess != nil {
		tele.NativeNS = sess.NativeNS
		tele.TTFRNS = sess.TTFRNS
		tele.PreSolved = sess.PreSolved
		tele.CacheHits = sess.CacheHits
		tele.CacheMisses = sess.CacheMisses
		tele.Divergences = sess.Divergences
	} else {
		tele.Partial = true
	}
	telePayload, err := jsonRecord(recTelemetry, tele)
	if err != nil {
		return Seal{}, Telemetry{}, err
	}
	if err := s.writeFrame(telePayload, false); err != nil {
		return Seal{}, Telemetry{}, err
	}

	seal := Seal{
		Runs: s.runs, UnixNS: now,
		Fingerprint: s.lastFingerprint, Recovered: recovered,
	}
	payload, err := jsonRecord(recSeal, seal)
	if err != nil {
		return Seal{}, Telemetry{}, err
	}
	if err := s.writeFrame(payload, true); err != nil {
		return Seal{}, Telemetry{}, err
	}
	err = s.f.Close()
	s.f = nil
	return seal, tele, err
}

// Abort closes the file handle without sealing (the store's shutdown path
// for an epoch that crash recovery will seal on the next start).
func (s *Segment) Abort() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// writeFrame frames and writes one payload, optionally fsyncing after.
func (s *Segment) writeFrame(payload []byte, sync bool) error {
	framed := trace.AppendFrame(nil, payload)
	if _, err := s.f.Write(framed); err != nil {
		return err
	}
	s.size += int64(len(framed))
	mSegmentBytes.Add(uint64(len(framed)))
	if sync {
		s.fsyncs++
		mFsyncs.Inc()
		return s.f.Sync()
	}
	return nil
}

// jsonRecord builds a type-byte + JSON payload.
func jsonRecord(typ byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append([]byte{typ}, body...), nil
}

// SegmentData is a fully parsed segment.
type SegmentData struct {
	// Path is the segment file's location.
	Path string
	// Header is the segment's environment record.
	Header Header
	// Runs holds every retained run in order.
	Runs []RunRecord
	// Checkpoint is the last durable checkpoint seen (nil if none).
	Checkpoint *Checkpoint
	// Telemetry is the sealed stats row (nil for open epochs and for
	// pre-telemetry format-v1 segments; see SynthesizeTelemetry).
	Telemetry *Telemetry
	// Seal is the closing record (nil while the epoch is open or after a
	// crash that lost the seal).
	Seal *Seal
	// Size is the file size after any recovery truncation.
	Size int64
}

// RecoveryReport describes what recovery had to do to a segment.
type RecoveryReport struct {
	// Torn reports that a torn tail frame was found and truncated.
	Torn bool
	// TruncatedBytes counts the bytes cut off the tail.
	TruncatedBytes int64
}

// ReadSegment strictly parses a segment: any torn frame, checksum failure,
// or undecodable record is a typed error. Use it for sealed segments,
// where the WAL contract says the bytes must be perfect.
func ReadSegment(path string) (*SegmentData, error) {
	data, _, err := scanSegment(path, false)
	return data, err
}

// InspectSegment is the side-effect-free reader for cold WAL inspection
// (lightstat -dir): it parses as much of the segment as is intact and
// stops at the first damaged frame WITHOUT truncating or otherwise
// touching the file — the directory may belong to a live daemon, and an
// inspector must never race its recovery or its appends. The boolean
// reports whether the scan stopped early (damage or an in-flight append);
// the error is non-nil only when nothing usable was read.
func InspectSegment(path string) (*SegmentData, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	data := &SegmentData{Path: path}
	br := bufio.NewReader(f)
	var offset int64
	sawHeader := false
	truncated := false
	for {
		payload, err := trace.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn, checksummed-bad, or oversized frame: with a live
			// writer this is most likely the append in flight; either
			// way, keep what parsed and stop.
			truncated = true
			break
		}
		if err := applyRecord(data, payload); err != nil {
			truncated = true
			break
		}
		sawHeader = true
		offset += trace.FrameSize(len(payload))
	}
	if !sawHeader {
		return nil, false, fmt.Errorf("%w: %s", ErrEmptySegment, path)
	}
	data.Size = offset
	return data, truncated, nil
}

// RecoverSegment parses a segment tolerating the crash shapes a WAL is
// designed for: a tail frame cut short by the crash (or half-flushed, so
// its checksum fails at end-of-file) is truncated off the file in place
// and the segment is returned without it. Interior corruption — a bad
// frame with valid bytes after it — and runs lost from behind a durable
// checkpoint remain typed errors: those shapes mean disk damage, and
// truncating would silently destroy data (DESIGN.md §9 recovery
// algorithm).
func RecoverSegment(path string) (*SegmentData, *RecoveryReport, error) {
	return scanSegment(path, true)
}

// scanSegment is the shared frame walk under ReadSegment/RecoverSegment.
func scanSegment(path string, recover bool) (*SegmentData, *RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	fileSize := st.Size()
	if fileSize == 0 {
		return nil, &RecoveryReport{}, fmt.Errorf("%w: %s", ErrEmptySegment, path)
	}

	report := &RecoveryReport{}
	data := &SegmentData{Path: path, Size: fileSize}
	br := bufio.NewReader(f)
	var offset int64 // start of the frame about to be read
	sawHeader := false
	for {
		payload, err := trace.ReadFrame(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return handleFrameError(data, report, path, offset, fileSize, err, recover, sawHeader)
		}
		next := offset + trace.FrameSize(len(payload))
		if err := applyRecord(data, payload); err != nil {
			// A checksummed frame that does not decode was written by
			// broken code, not torn by a crash; never truncate it away.
			return nil, nil, fmt.Errorf("%w: %s at offset %d: %v", ErrBadRecord, path, offset, err)
		}
		if !sawHeader {
			sawHeader = true
		}
		offset = next
	}
	if !sawHeader {
		return nil, report, fmt.Errorf("%w: %s", ErrEmptySegment, path)
	}
	if err := checkCheckpointCoverage(data, path); err != nil {
		return nil, report, err
	}
	data.Size = offset
	return data, report, nil
}

// handleFrameError classifies a frame read failure at offset and either
// truncates (recoverable tail damage) or fails typed.
func handleFrameError(data *SegmentData, report *RecoveryReport, path string, offset, fileSize int64, err error, recover, sawHeader bool) (*SegmentData, *RecoveryReport, error) {
	tailFrame := errors.Is(err, trace.ErrTornFrame)
	if errors.Is(err, trace.ErrFrameChecksum) {
		// A checksum failure on the file's final frame is the signature
		// of a half-flushed append (the length word landed, some payload
		// pages did not); anywhere else it is interior corruption.
		// The final-frame case is detected by the frame reaching EOF —
		// conservatively: no complete frame was parsed after it, which
		// the sequential scan guarantees here because we stop at the
		// first failure. Distinguish by whether any bytes beyond what a
		// tail truncation would keep could still hold valid frames: we
		// cannot re-sync a length-prefixed stream past a bad frame, so
		// we treat a checksum failure as tail damage only if the frame
		// runs to EOF.
		tailFrame = frameEndsAtEOF(path, offset, fileSize)
	}
	if !recover || !tailFrame {
		if errors.Is(err, trace.ErrFrameChecksum) || errors.Is(err, trace.ErrFrameTooLarge) {
			return nil, nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, path, offset, err)
		}
		if !recover {
			return nil, nil, fmt.Errorf("%w: %s at offset %d: torn frame in sealed segment: %v", ErrCorruptSegment, path, offset, err)
		}
		return nil, nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptSegment, path, offset, err)
	}
	// Torn tail: truncate the file at the last whole frame and keep going
	// with what survived.
	if !sawHeader {
		// The very first frame is torn: nothing durable ever existed.
		return nil, report, fmt.Errorf("%w: %s (header frame torn)", ErrEmptySegment, path)
	}
	if terr := os.Truncate(path, offset); terr != nil {
		return nil, nil, fmt.Errorf("epoch: truncating torn tail of %s: %w", path, terr)
	}
	report.Torn = true
	report.TruncatedBytes = fileSize - offset
	mTornTails.Inc()
	mTruncatedBytes.Add(uint64(report.TruncatedBytes))
	if err := checkCheckpointCoverage(data, path); err != nil {
		return nil, report, err
	}
	data.Size = offset
	return data, report, nil
}

// frameEndsAtEOF reports whether the frame starting at offset claims
// exactly the bytes remaining in the file (so a checksum failure there is
// tail damage, not interior corruption).
func frameEndsAtEOF(path string, offset, fileSize int64) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [trace.FrameHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], offset); err != nil {
		return false
	}
	length := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	return offset+trace.FrameSize(int(length)) >= fileSize
}

// checkCheckpointCoverage enforces the checkpoint durability promise: a
// recovered segment must retain at least as many runs as its last
// checkpoint had fsynced.
func checkCheckpointCoverage(data *SegmentData, path string) error {
	if data.Checkpoint != nil && len(data.Runs) < data.Checkpoint.Runs {
		return fmt.Errorf("%w: %s retains %d runs, checkpoint promised %d",
			ErrCheckpointLost, path, len(data.Runs), data.Checkpoint.Runs)
	}
	return nil
}

// applyRecord decodes one frame payload into the segment data.
func applyRecord(data *SegmentData, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("empty payload")
	}
	body := payload[1:]
	switch payload[0] {
	case recHeader:
		if err := json.Unmarshal(body, &data.Header); err != nil {
			return fmt.Errorf("header: %w", err)
		}
		// Accept every version up to the current one: v1 segments (no
		// telemetry frames) stay readable forever, the store synthesizes
		// their stats rows instead, and trace.Decode reads the LIGHTLOG1
		// run logs of v1 and v2 segments.
		if data.Header.Version < 1 || data.Header.Version > FormatVersion {
			return fmt.Errorf("unsupported segment version %d", data.Header.Version)
		}
		return nil
	case recRun:
		if len(body) < 4 {
			return errors.New("run record too short")
		}
		metaLen := int(binary.LittleEndian.Uint32(body[:4]))
		if metaLen < 0 || 4+metaLen > len(body) {
			return fmt.Errorf("run metadata length %d exceeds record", metaLen)
		}
		var meta RunMeta
		if err := json.Unmarshal(body[4:4+metaLen], &meta); err != nil {
			return fmt.Errorf("run metadata: %w", err)
		}
		log, err := trace.Decode(bytes.NewReader(body[4+metaLen:]))
		if err != nil {
			return fmt.Errorf("run log: %w", err)
		}
		data.Runs = append(data.Runs, RunRecord{Meta: meta, Log: log})
		return nil
	case recCheckpoint:
		var cp Checkpoint
		if err := json.Unmarshal(body, &cp); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		data.Checkpoint = &cp
		return nil
	case recTelemetry:
		var tele Telemetry
		if err := json.Unmarshal(body, &tele); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		data.Telemetry = &tele
		return nil
	case recSeal:
		var seal Seal
		if err := json.Unmarshal(body, &seal); err != nil {
			return fmt.Errorf("seal: %w", err)
		}
		data.Seal = &seal
		return nil
	default:
		return fmt.Errorf("unknown record type %q", payload[0])
	}
}
