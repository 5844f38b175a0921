package epoch

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sealWithSession builds a segment with runs runs and seals it carrying
// session-scoped telemetry, returning the path and the sealed row.
func sealWithSession(t *testing.T, dir string, id uint64, runs int, sess *Telemetry) (string, Telemetry) {
	t.Helper()
	path := filepath.Join(dir, segmentName(id))
	hdr := testHeader()
	hdr.EpochID = id
	seg, err := CreateSegment(path, hdr, 2, testNow())
	if err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	for i := 0; i < runs; i++ {
		meta := RunMeta{Seed: uint64(i + 1), Fingerprint: "fp", WallNS: 100, Events: 3, SpaceLongs: 8}
		if err := seg.AppendRun(meta, testLog(uint64(i+1))); err != nil {
			t.Fatalf("AppendRun %d: %v", i, err)
		}
	}
	_, tele, err := seg.SealSegment(false, sess)
	if err != nil {
		t.Fatalf("SealSegment: %v", err)
	}
	return path, tele
}

// TestTelemetryRoundTrip seals a segment with a session row and reads the
// 'T' frame back: the durable row must fuse the segment's own tally
// (runs, events, wall time, fsyncs) with the session-scoped fields.
func TestTelemetryRoundTrip(t *testing.T) {
	sess := &Telemetry{
		NativeNS: 50, TTFRNS: 7_000, PreSolved: 2,
		CacheHits: 6, CacheMisses: 2, Divergences: 0,
	}
	path, sealed := sealWithSession(t, t.TempDir(), 1, 3, sess)
	data, err := ReadSegment(path)
	if err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if data.Telemetry == nil {
		t.Fatal("sealed v2 segment has no telemetry frame")
	}
	got := *data.Telemetry
	if got != sealed {
		t.Fatalf("durable row %+v != sealed row %+v", got, sealed)
	}
	if got.EpochID != 1 || got.Runs != 3 || got.Events != 9 || got.SpaceLongs != 24 {
		t.Fatalf("tally fields wrong: %+v", got)
	}
	if got.RecordNS != 300 {
		t.Fatalf("RecordNS = %d, want 300 (3 runs x 100ns)", got.RecordNS)
	}
	// header + checkpoint-at-2 + pre-seal flush = 3 sync barriers; the
	// seal frame's own sync lands after the row is built.
	if got.Fsyncs != 3 {
		t.Fatalf("Fsyncs = %d, want 3", got.Fsyncs)
	}
	if got.SealNS <= 0 || got.WallNS <= 0 {
		t.Fatalf("timed fields not set: %+v", got)
	}
	if got.NativeNS != 50 || got.TTFRNS != 7_000 || got.PreSolved != 2 ||
		got.CacheHits != 6 || got.CacheMisses != 2 {
		t.Fatalf("session fields not merged: %+v", got)
	}
	if got.Partial || got.Recovered {
		t.Fatalf("clean session seal must not be partial/recovered: %+v", got)
	}
	// Bytes is the data size at seal time: exactly the offset where the
	// telemetry frame itself begins (the row rides after its measurement).
	offs := frameOffsets(t, path)
	if want := offs[len(offs)-2]; got.Bytes != want {
		t.Fatalf("Bytes = %d, want %d (start of the 'T' frame)", got.Bytes, want)
	}
	// Derived quantities over the same row.
	if ov := got.Overhead(); ov != float64(300)/3/50 {
		t.Fatalf("Overhead = %v", ov)
	}
	if r := got.CacheHitRate(); r != 0.75 {
		t.Fatalf("CacheHitRate = %v, want 0.75", r)
	}
	if bk := got.BytesPerKEvents(); bk <= 0 {
		t.Fatalf("BytesPerKEvents = %v", bk)
	}
}

// TestTelemetrySealWithoutSession pins the nil-session path (store sealing
// with no active session, crash recovery): the row is Partial with every
// session-scoped field zero.
func TestTelemetrySealWithoutSession(t *testing.T) {
	path, sealed := sealWithSession(t, t.TempDir(), 1, 2, nil)
	if !sealed.Partial {
		t.Fatalf("nil-session row must be partial: %+v", sealed)
	}
	if sealed.NativeNS != 0 || sealed.TTFRNS != 0 || sealed.CacheHits != 0 {
		t.Fatalf("session fields must stay zero: %+v", sealed)
	}
	if sealed.Overhead() != 0 {
		t.Fatalf("Overhead with unknown baseline = %v, want 0", sealed.Overhead())
	}
	if sealed.CacheHitRate() != -1 {
		t.Fatalf("CacheHitRate with no traffic = %v, want -1", sealed.CacheHitRate())
	}
	data, err := ReadSegment(path)
	if err != nil || data.Telemetry == nil {
		t.Fatalf("ReadSegment: %v, telemetry=%v", err, data.Telemetry)
	}
}

// writeV1Segment handcrafts a pre-telemetry (format v1) segment: header,
// runs, seal — no 'T' frame and LIGHTLOG1 run logs, exactly what a format
// v1 writer wrote.
func writeV1Segment(t *testing.T, path string, id uint64, runs int, sealed bool) {
	t.Helper()
	hdr := testHeader()
	hdr.Version = 1
	hdr.EpochID = id
	hdr.CreatedUnixNS = 100
	var metas []RunMeta
	for i := 0; i < runs; i++ {
		metas = append(metas, RunMeta{Index: i, Seed: uint64(i + 1), Fingerprint: "fp", WallNS: 100, Events: 3})
	}
	var seal *Seal
	if sealed {
		seal = &Seal{Runs: runs, UnixNS: 500, Fingerprint: "fp"}
	}
	if err := os.WriteFile(path, oldSegment(t, hdr, metas, goldenLIGHTLOG1(t, "srv-lucene"), seal), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1SegmentSynthesis reads a handcrafted format-v1 segment: it must
// stay readable (no telemetry frame decoded), and SynthesizeTelemetry must
// backfill a Partial row from run metadata alone.
func TestV1SegmentSynthesis(t *testing.T) {
	path := filepath.Join(t.TempDir(), segmentName(7))
	writeV1Segment(t, path, 7, 3, true)
	data, err := ReadSegment(path)
	if err != nil {
		t.Fatalf("ReadSegment(v1): %v", err)
	}
	if data.Header.Version != 1 || data.Telemetry != nil {
		t.Fatalf("v1 parse: version=%d telemetry=%v", data.Header.Version, data.Telemetry)
	}
	row := SynthesizeTelemetry(7, data, data.Seal.UnixNS)
	if !row.Partial || row.Recovered {
		t.Fatalf("synthesized row flags: %+v", row)
	}
	if row.EpochID != 7 || row.Runs != 3 || row.Events != 9 || row.RecordNS != 300 {
		t.Fatalf("synthesized tally: %+v", row)
	}
	if row.UnixNS != 500 || row.WallNS != 400 {
		t.Fatalf("synthesized times: unix=%d wall=%d, want 500/400", row.UnixNS, row.WallNS)
	}
	// An unsealed parse (crash shape) marks the synthesized row Recovered.
	unsealed := filepath.Join(t.TempDir(), segmentName(8))
	writeV1Segment(t, unsealed, 8, 2, false)
	data2, _, err := InspectSegment(unsealed)
	if err != nil {
		t.Fatalf("InspectSegment: %v", err)
	}
	row2 := SynthesizeTelemetry(8, data2, 900)
	if !row2.Recovered || !row2.Partial || row2.UnixNS != 900 {
		t.Fatalf("crash-synthesized row: %+v", row2)
	}
}

// TestInspectSegmentNeverWrites pins the cold-reader contract: a damaged
// tail stops the scan (reported via the boolean) but the file is left
// byte-identical — the directory may belong to a live daemon.
func TestInspectSegmentNeverWrites(t *testing.T) {
	path, _ := sealWithSession(t, t.TempDir(), 1, 2, nil)
	data, stopped, err := InspectSegment(path)
	if err != nil || stopped {
		t.Fatalf("clean inspect: stopped=%v err=%v", stopped, err)
	}
	if data.Seal == nil || data.Telemetry == nil {
		t.Fatal("clean inspect must surface seal and telemetry")
	}
	// Append half a frame — an in-flight append or torn tail.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(append([]byte{}, before...), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	data2, stopped2, err := InspectSegment(path)
	if err != nil || !stopped2 {
		t.Fatalf("damaged inspect: stopped=%v err=%v", stopped2, err)
	}
	if data2.Seal == nil || len(data2.Runs) != 2 {
		t.Fatalf("damaged inspect lost intact prefix: %+v", data2)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(damaged) {
		t.Fatalf("InspectSegment modified the file: %d -> %d bytes", len(damaged), len(after))
	}
}

// TestScanDir covers lightstat's cold path over a mixed directory: sealed
// v2, sealed v1 (synthesized), and an unsealed crash segment (skipped).
func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	_, row1 := sealWithSession(t, dir, 1, 2, &Telemetry{NativeNS: 50})
	writeV1Segment(t, filepath.Join(dir, segmentName(2)), 2, 1, true)
	// Epoch 3 died open: header + one run, no seal.
	seg, err := CreateSegment(filepath.Join(dir, segmentName(3)), testHeader(), 2, testNow())
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AppendRun(RunMeta{Seed: 1, Events: 3}, testLog(1)); err != nil {
		t.Fatal(err)
	}
	if err := seg.Abort(); err != nil {
		t.Fatal(err)
	}

	rows, err := ScanDir(dir)
	if err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (unsealed epoch skipped): %+v", len(rows), rows)
	}
	if rows[0] != row1 {
		t.Fatalf("v2 row not returned verbatim: %+v != %+v", rows[0], row1)
	}
	if rows[1].EpochID != 2 || !rows[1].Partial {
		t.Fatalf("v1 row not synthesized: %+v", rows[1])
	}
}

// TestHistoryBounds covers the bounded series: insert-sorted, replace by
// ID, oldest-first eviction, and the read accessors.
func TestHistoryBounds(t *testing.T) {
	h := NewHistory(3)
	for _, id := range []uint64{2, 1, 4, 3} { // out of order on purpose
		h.Add(Telemetry{EpochID: id, Runs: int(id)})
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (bound)", h.Len())
	}
	if _, ok := h.Get(1); ok {
		t.Fatal("oldest row must be evicted")
	}
	rows := h.Last(0)
	if len(rows) != 3 || rows[0].EpochID != 2 || rows[2].EpochID != 4 {
		t.Fatalf("Last(0) = %+v, want epochs 2,3,4 in order", rows)
	}
	if got := h.Last(2); len(got) != 2 || got[0].EpochID != 3 {
		t.Fatalf("Last(2) = %+v", got)
	}
	// Re-adding an ID replaces in place (recovery backfill idempotence).
	h.Add(Telemetry{EpochID: 3, Runs: 99})
	if h.Len() != 3 {
		t.Fatalf("replace changed Len to %d", h.Len())
	}
	if row, ok := h.Get(3); !ok || row.Runs != 99 {
		t.Fatalf("Get(3) = %+v, %v", row, ok)
	}
	if newest, ok := h.Newest(); !ok || newest.EpochID != 4 {
		t.Fatalf("Newest = %+v, %v", newest, ok)
	}
}

// TestEvaluateHealth drives every SLO rule through the pure evaluator.
func TestEvaluateHealth(t *testing.T) {
	slo := DefaultSLO()
	clean := Telemetry{EpochID: 5, Runs: 2, RecordNS: 200, NativeNS: 100, SealNS: 1000}
	cases := []struct {
		name   string
		slo    SLO
		in     HealthInput
		want   HealthState
		reason string
	}{
		{"no rows", slo, HealthInput{}, HealthOK, ""},
		{"clean row", slo, HealthInput{Newest: clean, Have: true}, HealthOK, ""},
		{"session error", slo, HealthInput{SessionErr: "boom"}, HealthUnhealthy, "session stopped"},
		{"divergence", slo, HealthInput{Newest: Telemetry{EpochID: 5, Divergences: 1}, Have: true},
			HealthUnhealthy, "replay divergences"},
		{"recovered", slo, HealthInput{Newest: Telemetry{EpochID: 5, Recovered: true}, Have: true},
			HealthDegraded, "crash-recovered"},
		{"overhead", SLO{MaxOverhead: 0.5}, HealthInput{Newest: clean, Have: true},
			HealthDegraded, "record overhead"},
		{"seal latency", SLO{MaxSealMS: 1}, HealthInput{
			Newest: Telemetry{EpochID: 5, SealNS: 5_000_000}, Have: true},
			HealthDegraded, "seal flush"},
		{"retention pressure", slo, HealthInput{RetainedBytes: 95, RetainBudget: 100},
			HealthDegraded, "retention budget"},
		{"no budget no pressure", slo, HealthInput{RetainedBytes: 1 << 40}, HealthOK, ""},
		{"worst wins", slo, HealthInput{
			Newest: Telemetry{EpochID: 5, Divergences: 2, Recovered: true}, Have: true},
			HealthUnhealthy, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := EvaluateHealth(tc.slo, tc.in)
			if h.State != tc.want {
				t.Fatalf("state = %v (%v), want %v", h.State, h.Reasons, tc.want)
			}
			if tc.reason != "" && !strings.Contains(strings.Join(h.Reasons, "\n"), tc.reason) {
				t.Fatalf("reasons %v missing %q", h.Reasons, tc.reason)
			}
			if tc.want == HealthOK && len(h.Reasons) != 0 {
				t.Fatalf("ok with reasons: %v", h.Reasons)
			}
		})
	}
	// Worst-wins keeps every triggered reason, not just the winner's.
	h := EvaluateHealth(slo, HealthInput{
		Newest: Telemetry{EpochID: 5, Divergences: 2, Recovered: true}, Have: true})
	if len(h.Reasons) != 2 || h.Epoch != 5 {
		t.Fatalf("combined evaluation: %+v", h)
	}
}

// TestHealthTrackerTransitions pins the transition bookkeeping: only state
// *changes* count, the counter is monotonic, and SetSLO takes effect on
// the next Evaluate.
func TestHealthTrackerTransitions(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	tr := NewHealthTracker(DefaultSLO(), nil)
	before := obs.TakeSnapshot()
	degraded := HealthInput{Newest: Telemetry{EpochID: 1, Recovered: true}, Have: true}
	clean := HealthInput{Newest: Telemetry{EpochID: 2}, Have: true}

	if h := tr.Evaluate(clean); h.State != HealthOK {
		t.Fatalf("clean = %v", h.State)
	}
	tr.Evaluate(degraded) // ok -> degraded: transition 1
	tr.Evaluate(degraded) // degraded -> degraded: no transition
	tr.Evaluate(clean)    // degraded -> ok: transition 2
	delta := obs.TakeSnapshot().Delta(before)
	if got := delta.Counter("lightd_health_transitions_total"); got != 2 {
		t.Fatalf("transitions = %d, want 2", got)
	}
	if cur := tr.Current(); cur.State != HealthOK {
		t.Fatalf("Current = %v", cur.State)
	}

	// Tightening the SLO flips the same input to degraded on next read.
	tight := DefaultSLO()
	tight.MaxOverhead = 1e-9
	tr.SetSLO(tight)
	if got := tr.SLO(); got.MaxOverhead != 1e-9 {
		t.Fatalf("SLO not updated: %+v", got)
	}
	h := tr.Evaluate(HealthInput{
		Newest: Telemetry{EpochID: 3, Runs: 1, RecordNS: 100, NativeNS: 50}, Have: true})
	if h.State != HealthDegraded {
		t.Fatalf("tight SLO evaluation = %v", h.State)
	}
}
