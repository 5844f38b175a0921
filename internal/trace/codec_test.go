package trace_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/light"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// goldenLogs returns the committed golden recordings, LIGHTLOG1 bytes on
// disk, keyed by file name.
func goldenLogs(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "light", "testdata", "golden", "*.lightlog"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden logs: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

func encode(t *testing.T, l *trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	if n, err := trace.EncodedBytes(l); err != nil || n != int64(buf.Len()) {
		t.Fatalf("EncodedBytes = %d, %v; Encode wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

// roundTrip requires Decode(Encode(l)) to equal l exactly and returns the
// encoding.
func roundTrip(t *testing.T, name string, l *trace.Log) []byte {
	t.Helper()
	enc := encode(t, l)
	if string(enc[:9]) != "LIGHTLOG2" {
		t.Fatalf("%s: Encode wrote magic %q", name, enc[:9])
	}
	got, err := trace.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("%s: round trip mismatch:\nin:  %+v\nout: %+v", name, l, got)
	}
	return enc
}

// TestCodecGoldenRoundTrip decodes every committed LIGHTLOG1 golden log and
// requires its LIGHTLOG2 encoding to decode to the same log, in fewer bytes.
func TestCodecGoldenRoundTrip(t *testing.T) {
	var v1, v2 int
	for name, data := range goldenLogs(t) {
		l, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc := roundTrip(t, name, l)
		if len(enc) >= len(data) {
			t.Errorf("%s: LIGHTLOG2 %d bytes, LIGHTLOG1 %d", name, len(enc), len(data))
		}
		v1 += len(data)
		v2 += len(enc)
	}
	t.Logf("golden logs: LIGHTLOG1 %d bytes, LIGHTLOG2 %d", v1, v2)
}

// TestCodecRecordedRoundTrip round-trips logs recorded from built-in
// workloads at a few seeds.
func TestCodecRecordedRoundTrip(t *testing.T) {
	for _, name := range []string{"par-hotfield", "par-handoff", "srv-pool", "stamp-yada"} {
		prog, err := workloads.ByName(name).Compile()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			l := light.Record(prog, light.Options{O1: true}, light.RunConfig{Seed: seed}).Log
			if len(l.Deps)+len(l.Ranges) == 0 {
				t.Fatalf("%s seed %d: empty recording", name, seed)
			}
			roundTrip(t, name, l)
		}
	}
}

// adversarialLogs are valid Log values that no recorder writes. Besides the
// two empty logs, each one takes at least one escape out of the fast codes.
func adversarialLogs() map[string]*trace.Log {
	const maxU = math.MaxUint64
	base := func() *trace.Log {
		return &trace.Log{Tool: "light", Threads: []string{"0", "0.1"}, Syscalls: map[int32][]trace.SyscallRec{}}
	}
	logs := map[string]*trace.Log{
		"empty":         {Syscalls: map[int32][]trace.SyscallRec{}},
		"empty-threads": base(),
	}
	l := base()
	l.NumLocs = -3
	l.Deps = []trace.Dep{
		{Loc: -1, W: trace.TC{Thread: 1, Counter: 2}, R: trace.TC{Thread: 0, Counter: 3}},
		{Loc: math.MinInt32, W: trace.TC{Thread: trace.InitialThread}, R: trace.TC{Thread: 0, Counter: 4}},
		{Loc: math.MaxInt32, W: trace.TC{Thread: 0, Counter: 1}, R: trace.TC{Thread: 0, Counter: 9}},
	}
	l.Ranges = []trace.Range{{Loc: -7, Thread: 1, Start: 1, End: 2, W: trace.TC{Thread: 0, Counter: 1}, HasWrite: true, StartsWithRead: true}}
	logs["negative-locations"] = l

	l = base()
	l.Deps = []trace.Dep{
		{Loc: 1, W: trace.TC{Thread: 5, Counter: 2}, R: trace.TC{Thread: 0, Counter: 3}},   // W outside the table
		{Loc: 1, W: trace.TC{Thread: -2, Counter: 2}, R: trace.TC{Thread: 0, Counter: 4}},  // W negative
		{Loc: 1, W: trace.TC{Thread: 1, Counter: 2}, R: trace.TC{Thread: 9, Counter: 5}},   // R outside the table
		{Loc: 1, W: trace.TC{Thread: 9, Counter: 2}, R: trace.TC{Thread: 9, Counter: 6}},   // own thread outside the table
		{Loc: 1, W: trace.TC{Thread: 0, Counter: 2}, R: trace.TC{Thread: -4, Counter: 7}},  // R negative
		{Loc: 1, W: trace.TC{Thread: -4, Counter: 8}, R: trace.TC{Thread: -4, Counter: 7}}, // W after R
	}
	l.Ranges = []trace.Range{
		{Loc: 2, Thread: 7, Start: 1, End: 3, W: trace.TC{Thread: 1, Counter: 1}, StartsWithRead: true},
		{Loc: 2, Thread: -1, Start: 1, End: 3, W: trace.TC{Thread: -9, Counter: 1}, StartsWithRead: true},
		{Loc: 2, Thread: 0, Start: 4, End: 8, W: trace.TC{Thread: 3, Counter: 1}, StartsWithRead: true},
	}
	logs["threads-outside-table"] = l

	l = base()
	l.Deps = []trace.Dep{{Loc: 0, W: trace.TC{Thread: trace.InitialThread, Counter: 5}, R: trace.TC{Thread: 0, Counter: 1}}}
	l.Ranges = []trace.Range{{Loc: 0, Thread: 1, Start: 2, End: 4, W: trace.TC{Thread: trace.InitialThread, Counter: 1}, StartsWithRead: true}}
	logs["initial-with-counter"] = l

	l = base()
	l.Ranges = []trace.Range{
		{Loc: 0, Thread: 0, Start: 2, End: 4, W: trace.TC{Thread: 0, Counter: 2}, HasWrite: true},          // W = (Thread, Start), starts with a write
		{Loc: 0, Thread: 0, Start: 5, End: 9, W: trace.TC{Thread: 1, Counter: 3}, HasWrite: true},          // a writer on a write-first range
		{Loc: 1, Thread: 0, Start: 10, End: 12, StartsWithRead: true},                                      // a read-first range with the zero W
		{Loc: 1, Thread: 0, Start: 13, End: 15, W: trace.TC{Thread: 0, Counter: 11}, StartsWithRead: true}, // own-thread source
		{Loc: 1, Thread: 0, Start: 16, End: 16, W: trace.TC{Thread: 0, Counter: 20}, StartsWithRead: true}, // own-thread source after Start
		{Loc: 1, Thread: 0, Start: 20, End: 17, HasWrite: true},                                            // End < Start
		{Loc: 1, Thread: 0, Start: 30, End: 30, W: trace.TC{Thread: trace.InitialThread}, StartsWithRead: true, HasWrite: true},
	}
	logs["range-writers"] = l

	l = base()
	l.Seed = maxU
	l.Deps = []trace.Dep{
		{Loc: 0, W: trace.TC{Thread: 1, Counter: 0}, R: trace.TC{Thread: 0, Counter: 0}},
		{Loc: 0, W: trace.TC{Thread: 1, Counter: maxU}, R: trace.TC{Thread: 0, Counter: maxU}},
		{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 1}},
		{Loc: 0, W: trace.TC{Thread: 1, Counter: maxU / 2}, R: trace.TC{Thread: 0, Counter: maxU/2 + 1}},
		{Loc: 0, W: trace.TC{Thread: 0, Counter: maxU}, R: trace.TC{Thread: 0, Counter: 0}},
		{Loc: 0, W: trace.TC{Thread: 1, Counter: 7}, R: trace.TC{Thread: 0, Counter: 3}}, // backwards
	}
	l.Ranges = []trace.Range{
		{Loc: 0, Thread: 0, Start: maxU, End: maxU, HasWrite: true},
		{Loc: 0, Thread: 0, Start: 0, End: maxU, W: trace.TC{Thread: 1, Counter: maxU}, StartsWithRead: true},
		{Loc: 0, Thread: 0, Start: maxU / 3, End: 0, W: trace.TC{Thread: 1, Counter: 0}, StartsWithRead: true},
	}
	l.Syscalls = map[int32][]trace.SyscallRec{0: {{Seq: maxU, Value: math.MinInt64}, {Seq: 0, Value: math.MaxInt64}}}
	l.SpaceLongs = math.MinInt64
	logs["extreme-counters"] = l

	l = base()
	l.Syscalls = map[int32][]trace.SyscallRec{
		-1: {{Seq: 3, Value: 1}},
		0:  {{Seq: 1, Value: 100}, {Seq: 2, Value: -3}, {Seq: 2, Value: 0}},
		7:  {{Seq: 9, Value: 7}},
	}
	l.Bugs = []trace.Bug{
		{Kind: 2, ThreadPath: "0.1", FuncID: 4, PC: 17, Value: "null", Msg: "read of field f on null"},
		{Kind: -1, FuncID: -2, PC: math.MaxInt32},
	}
	logs["syscalls-and-bugs"] = l

	// A wide thread table: header multipliers of several hundred, with
	// every writer code in use.
	l = base()
	l.Threads = nil
	for i := 0; i < 300; i++ {
		l.Threads = append(l.Threads, "t")
	}
	for i := int32(0); i < 300; i++ {
		l.Deps = append(l.Deps, trace.Dep{Loc: i % 5, W: trace.TC{Thread: 299 - i, Counter: uint64(i) * 3}, R: trace.TC{Thread: i / 50, Counter: uint64(i)}})
		l.Ranges = append(l.Ranges, trace.Range{Loc: i, Thread: i / 50, Start: uint64(i), End: uint64(i) + 2, W: trace.TC{Thread: 299 - i, Counter: 1}, StartsWithRead: i%2 == 0, HasWrite: i%3 == 0})
	}
	logs["wide-thread-table"] = l
	return logs
}

// TestCodecAdversarialRoundTrip round-trips logs that take every escape.
func TestCodecAdversarialRoundTrip(t *testing.T) {
	for name, l := range adversarialLogs() {
		roundTrip(t, name, l)
	}
}

// TestCodecEveryTruncationRejected cuts LIGHTLOG2 encodings and the
// LIGHTLOG1 golden files at every byte: each strict prefix must fail to
// decode, without a panic.
func TestCodecEveryTruncationRejected(t *testing.T) {
	encs := map[string][]byte{}
	for name, l := range adversarialLogs() {
		encs[name] = encode(t, l)
	}
	for _, name := range []string{"par-hotfield.lightlog", "srv-pool.lightlog", "bug-Weblech.lightlog"} {
		v1 := goldenLogs(t)[name]
		l, err := trace.Decode(bytes.NewReader(v1))
		if err != nil {
			t.Fatal(err)
		}
		encs[name+" (LIGHTLOG1)"] = v1
		encs[name] = encode(t, l)
	}
	for name, enc := range encs {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := trace.Decode(bytes.NewReader(enc[:cut])); err == nil {
				t.Errorf("%s: the %d-byte prefix of %d decoded", name, cut, len(enc))
			}
		}
	}
}

// TestCodecHugeCountsDoNotAllocate gives every counted section of both
// formats a count far beyond the input that follows: the decode must fail
// without allocating for the claimed items.
func TestCodecHugeCountsDoNotAllocate(t *testing.T) {
	const huge = 1 << 20
	u := binary.AppendUvarint
	str := func(b []byte, s string) []byte { return append(u(b, uint64(len(s))), s...) }
	type section struct {
		name   string
		prefix func(magic string) []byte
	}
	head := func(magic string) []byte {
		b := str([]byte(magic), "light")
		b = u(b, 1)     // seed
		b = u(b, 1)     // one thread
		b = str(b, "0") //
		return u(b, 2)  // NumLocs (a uvarint in LIGHTLOG1, a varint in LIGHTLOG2)
	}
	sections := []section{
		{"threads", func(m string) []byte { return u(u(str([]byte(m), "light"), 1), huge) }},
		{"deps", func(m string) []byte { return u(head(m), huge) }},
		{"ranges", func(m string) []byte { return u(u(head(m), 0), huge) }},
		{"syscall threads", func(m string) []byte { return u(u(u(head(m), 0), 0), huge) }},
		{"syscall records", func(m string) []byte { return u(u(u(u(u(head(m), 0), 0), 1), 0), huge) }},
		{"bugs", func(m string) []byte { return u(u(u(u(u(head(m), 0), 0), 0), 0), huge) }},
	}
	for _, magic := range []string{"LIGHTLOG1", "LIGHTLOG2"} {
		for _, s := range sections {
			in := append(s.prefix(magic), make([]byte, 64)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := trace.Decode(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s %s: a count of %d over %d bytes decoded", magic, s.name, huge, len(in))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
				t.Errorf("%s %s: decode allocated %d bytes for a %d-byte input", magic, s.name, alloc, len(in))
			}
		}
	}
}
