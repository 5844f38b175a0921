package epoch

// Telemetry is the per-epoch stats frame sealed into the segment as a
// CRC-framed 'T' record, written immediately before the seal. It is the
// durable answer to "what did recording cost during *this* epoch": the
// obs-registry delta since the previous cut fused with the epoch's own
// facts, so overhead, WAL pressure, cache behavior, and replay health
// survive restarts and stay attributable to the interval that produced
// them (the rr-deployability operating question, PAPERS.md). Rows are
// immutable once sealed — a cold reader of the WAL and a live daemon
// render identical histories.
type Telemetry struct {
	// EpochID is the epoch this row describes.
	EpochID uint64 `json:"epoch_id"`
	// UnixNS is the row's wall-clock timestamp (the seal time).
	UnixNS int64 `json:"unix_ns"`
	// Runs is the epoch's complete record-run count.
	Runs int `json:"runs"`
	// WallNS is the epoch's wall-clock span, open to seal.
	WallNS int64 `json:"wall_ns"`
	// Bytes is the segment's data size at seal time (header + runs +
	// checkpoints; the telemetry and seal frames themselves land after
	// this measurement, so the row can be written before them).
	Bytes int64 `json:"bytes"`
	// Events and SpaceLongs total the recorded log volume across the
	// epoch's runs; Bugs totals observed failures.
	Events     int   `json:"events"`
	SpaceLongs int64 `json:"space_longs"`
	Bugs       int   `json:"bugs,omitempty"`
	// RecordNS is the summed wall time of the epoch's record runs.
	RecordNS int64 `json:"record_ns"`
	// NativeNS is the session's baseline run time: one timed run at
	// session start with no recorder, NopHooks dispatch under the full
	// instrumentation mask. Zero when unknown (recovered or pre-telemetry
	// rows).
	NativeNS int64 `json:"native_ns,omitempty"`
	// Fsyncs counts the fsync barriers the segment performed (header,
	// checkpoints, seal-path flushes).
	Fsyncs int `json:"fsyncs"`
	// SealNS is the timed pre-seal data flush — the dominant cost of a
	// cut (the telemetry and seal frames after it ride one more sync).
	SealNS int64 `json:"seal_ns"`
	// TTFRNS is the time-to-first-replay proxy: the seal→schedules-ready
	// latency of the most recently completed background pre-solve at the
	// time this row was cut. Zero when pre-solve is off or none has
	// finished yet. It lags one epoch by construction (epoch N's solve
	// completes while N+1 records) — rows are never amended after seal.
	TTFRNS int64 `json:"ttfr_ns,omitempty"`
	// PreSolved counts runs pre-solved in the background this interval.
	PreSolved int `json:"presolved,omitempty"`
	// CacheHits/CacheMisses are the interval's whole-schedule cache
	// outcomes (light_schedule_cache_hits/misses_total deltas).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	// Divergences is the interval's replay divergence count
	// (light_replay_divergence_total delta); any nonzero value means a
	// replay contradicted its recorded schedule.
	Divergences uint64 `json:"divergences,omitempty"`
	// Recovered marks a row sealed by crash recovery, not a clean cut.
	Recovered bool `json:"recovered,omitempty"`
	// Partial marks a synthesized row: built from run metadata because
	// the epoch crashed before its cut (no session delta existed) or the
	// segment predates the telemetry format. Session-scoped fields
	// (NativeNS, TTFRNS, cache stats) are zero in partial rows.
	Partial bool `json:"partial,omitempty"`
}

// Overhead returns the record-overhead factor: mean record-run wall time
// over the native baseline. Zero when either side is unknown.
func (t Telemetry) Overhead() float64 {
	if t.Runs == 0 || t.NativeNS == 0 || t.RecordNS == 0 {
		return 0
	}
	return float64(t.RecordNS) / float64(t.Runs) / float64(t.NativeNS)
}

// BytesPerKEvents returns the WAL cost of recording: segment bytes per
// thousand logged events. Zero when the epoch logged nothing.
func (t Telemetry) BytesPerKEvents() float64 {
	if t.Events == 0 {
		return 0
	}
	return float64(t.Bytes) / float64(t.Events) * 1000
}

// CacheHitRate returns the interval's schedule-cache hit rate in [0,1],
// or -1 when the interval had no cache traffic (distinguishing "no
// demand" from "all misses").
func (t Telemetry) CacheHitRate() float64 {
	total := t.CacheHits + t.CacheMisses
	if total == 0 {
		return -1
	}
	return float64(t.CacheHits) / float64(total)
}

// SynthesizeTelemetry builds a partial telemetry row from a parsed segment
// that has no sealed 'T' frame: crash recovery synthesizing a row for an
// epoch that died open, startup backfilling rows for pre-telemetry (v1)
// segments, and lightstat's cold WAL scan all share this path. Everything
// derivable from run metadata is filled; session-scoped fields stay zero
// and the row is marked Partial.
func SynthesizeTelemetry(id uint64, data *SegmentData, nowNS int64) Telemetry {
	t := Telemetry{EpochID: id, Runs: len(data.Runs), Bytes: data.Size, Partial: true}
	for _, r := range data.Runs {
		t.Events += r.Meta.Events
		t.SpaceLongs += r.Meta.SpaceLongs
		t.Bugs += r.Meta.Bugs
		t.RecordNS += r.Meta.WallNS
	}
	if data.Seal != nil {
		t.UnixNS = data.Seal.UnixNS
		t.Recovered = data.Seal.Recovered
	} else {
		t.UnixNS = nowNS
		t.Recovered = true
	}
	if data.Header.CreatedUnixNS > 0 && t.UnixNS > data.Header.CreatedUnixNS {
		t.WallNS = t.UnixNS - data.Header.CreatedUnixNS
	}
	return t
}
