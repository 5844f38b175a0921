package epoch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenLIGHTLOG1 returns a committed golden recording's bytes, which are
// LIGHTLOG1, the run-log format of format v1 and v2 segments.
func goldenLIGHTLOG1(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "light", "testdata", "golden", name+".lightlog"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("LIGHTLOG1")) {
		t.Fatalf("%s is not a LIGHTLOG1 log", name)
	}
	return data
}

// oldSegment frames a segment by hand, as a writer of an older format
// version laid it out: a header, one 'R' record per meta carrying logBytes
// verbatim, and a seal when seal is not nil.
func oldSegment(t *testing.T, hdr Header, metas []RunMeta, logBytes []byte, seal *Seal) []byte {
	t.Helper()
	var file []byte
	appendJSON := func(typ byte, v any) {
		payload, err := jsonRecord(typ, v)
		if err != nil {
			t.Fatal(err)
		}
		file = trace.AppendFrame(file, payload)
	}
	appendJSON(recHeader, hdr)
	for _, meta := range metas {
		metaJSON, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte{recRun}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(metaJSON)))
		payload = append(payload, metaJSON...)
		payload = append(payload, logBytes...)
		file = trace.AppendFrame(file, payload)
	}
	if seal != nil {
		appendJSON(recSeal, *seal)
	}
	return file
}

// srvLuceneFingerprint is the final heap of the run recorded in the
// srv-lucene golden log (GOMAXPROCS 1, O1, seed 11, every site
// instrumented): recording srv-lucene that way again reproduces the golden
// log and ends with this heap.
const srvLuceneFingerprint = "g0=#0:map{0:32,1:33,2:34,3:35,4:36,5:37,6:38,7:39,8:40,9:41,10:42,11:43,12:44,13:45,14:46,15:47,16:48,17:49,18:50,19:51,20:52,21:53,22:54,23:55,24:56,25:57,26:58,27:59,28:28,29:29,30:30,31:31};g1=#1:map{};g2=60;"

// TestFormatV2SegmentWithLIGHTLOG1Runs builds a format v2 segment whose run
// records hold the committed srv-lucene golden recording in its LIGHTLOG1
// bytes, as a store written before LIGHTLOG2 holds them, and requires
// Store.Load to decode it and ReplayEpoch to pass. Every site of srv-lucene
// is shared, so the O2-off mask ReplayEpoch derives from the header
// instruments what the recording did.
func TestFormatV2SegmentWithLIGHTLOG1Runs(t *testing.T) {
	const name, seed, fp = "srv-lucene", 11, srvLuceneFingerprint
	logBytes := goldenLIGHTLOG1(t, name)
	want, err := trace.Decode(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.ByName(name)

	hdr := Header{Version: 2, EpochID: 4, CreatedUnixNS: 100, Workload: name, Source: w.Source, SeedBase: seed, O1: true}
	metas := []RunMeta{
		{Index: 0, Seed: seed, Fingerprint: fp, Events: want.Events(), SpaceLongs: want.SpaceLongs},
		{Index: 1, Seed: seed, Fingerprint: fp, Events: want.Events(), SpaceLongs: want.SpaceLongs},
	}
	dir := t.TempDir()
	file := oldSegment(t, hdr, metas, logBytes, &Seal{Runs: 2, UnixNS: 500, Fingerprint: fp})
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := openStore(t, dir, -1)
	data, err := s.Load(4)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if data.Header.Version != 2 || len(data.Runs) != 2 {
		t.Fatalf("loaded version %d with %d runs, want version 2 with 2", data.Header.Version, len(data.Runs))
	}
	for _, rr := range data.Runs {
		if !reflect.DeepEqual(rr.Log, want) {
			t.Fatalf("run %d: the loaded log differs from the golden log", rr.Meta.Index)
		}
	}
	v, err := ReplayEpoch(data, -1)
	if err != nil {
		t.Fatalf("ReplayEpoch: %v", err)
	}
	if !v.Pass || len(v.Runs) != 2 {
		t.Fatalf("ReplayEpoch of the v2 segment did not pass: %+v", v)
	}
}

// TestSegmentRejectsNewerFormat pins the version gate: a segment stamped
// with a format newer than FormatVersion fails to parse at its header.
func TestSegmentRejectsNewerFormat(t *testing.T) {
	hdr := testHeader()
	hdr.Version = FormatVersion + 1
	path := filepath.Join(t.TempDir(), segmentName(1))
	if err := os.WriteFile(path, oldSegment(t, hdr, nil, nil, &Seal{}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(path); err == nil {
		t.Fatalf("a format %d segment parsed", hdr.Version)
	}
}
