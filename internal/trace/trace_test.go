package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleLog() *Log {
	return &Log{
		Tool:    "light",
		Seed:    42,
		Threads: []string{"0", "0.1", "0.2"},
		NumLocs: 7,
		Deps: []Dep{
			{Loc: 0, W: TC{0, 10}, R: TC{1, 1}},
			{Loc: 3, W: TC{InitialThread, 0}, R: TC{2, 5}},
			{Loc: 6, W: TC{1, 99}, R: TC{0, 1234567}},
		},
		Ranges: []Range{
			{Loc: 0, Thread: 1, Start: 3, End: 17, W: TC{0, 10}, HasWrite: false, StartsWithRead: true},
			{Loc: 2, Thread: 2, Start: 1, End: 4, W: TC{2, 1}, HasWrite: true},
		},
		Syscalls: map[int32][]SyscallRec{
			0: {{Seq: 1, Value: 100}, {Seq: 2, Value: -3}},
			2: {{Seq: 1, Value: 7}},
		},
		SpaceLongs: 17,
		Bugs: []Bug{
			{Kind: 0, ThreadPath: "0.1", FuncID: 2, PC: 14, Value: "null", Msg: "read of field f on null"},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Errorf("round trip mismatch:\nin:  %+v\nout: %+v", l, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var valid bytes.Buffer
	if err := Encode(&valid, &Log{Tool: "x", Threads: []string{"0"}}); err != nil {
		t.Fatal(err)
	}
	// v2 is the encoding of a one-thread log up to its dependence count.
	v2 := "LIGHTLOG2\x01x\x00\x01\x010\x00"
	for _, in := range []string{
		"", "NOTALOG", "LIGHTLOG", "LIGHTLOG3", "LIGHTLOG1", "LIGHTLOG1\x05ab", "LIGHTLOG2", "LIGHTLOG2\x05ab",
		valid.String() + "\x00",                                                         // a trailing byte
		v2 + "\x01\x01\x00\x00\x00\x00\x00",                                             // dependence header 1: no reader counter delta
		v2 + "\x01\x00\x00\x00\x00\x00\x00\x00\x00",                                     // a raw dependence, then the log ends early
		v2 + "\x01\x00\x00\x00\xfe\xff\xff\xff\x1f\x00\x00\x00\x00\x00\x00",             // location beyond int32
		v2 + "\x01\x00\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00\x00\x00\x00", // varint beyond 64 bits
		v2 + "\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00",                                 // range header 2: below the first ΔStart
		v2 + "\x00\x01\x00\x00\x01\x00\x00\x04\x00\x00\x00\x00\x00",                     // raw range with flags 4
		v2 + "\x00\x00\x00\x00\x80",                                                     // bug count cut short
	} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", in)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Any strict prefix must fail cleanly, not panic.
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Decode of %d/%d byte prefix succeeded", cut, len(full))
		}
	}
}

func TestEmptyLogRoundTrip(t *testing.T) {
	l := &Log{Tool: "x", Syscalls: map[int32][]SyscallRec{}}
	var buf bytes.Buffer
	if err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "x" || len(got.Deps) != 0 || len(got.Threads) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestThreadIndex(t *testing.T) {
	l := sampleLog()
	if got := l.ThreadIndex("0.1"); got != 1 {
		t.Errorf("ThreadIndex(0.1) = %d", got)
	}
	if got := l.ThreadIndex("nope"); got != -1 {
		t.Errorf("ThreadIndex(nope) = %d", got)
	}
}

// randomLog builds an arbitrary but valid log from a rand source, used by
// the property-based round-trip test.
func randomLog(r *rand.Rand) *Log {
	l := &Log{
		Tool:     []string{"light", "leap", "stride"}[r.Intn(3)],
		Seed:     r.Uint64(),
		Syscalls: make(map[int32][]SyscallRec),
		NumLocs:  int32(r.Intn(100)),
	}
	nt := r.Intn(6)
	for i := 0; i < nt; i++ {
		l.Threads = append(l.Threads, "0."+string(rune('1'+i)))
	}
	for i := 0; i < r.Intn(50); i++ {
		l.Deps = append(l.Deps, Dep{
			Loc: int32(r.Intn(100)),
			W:   TC{int32(r.Intn(5)) - 1, r.Uint64() % (1 << 48)},
			R:   TC{int32(r.Intn(5)), r.Uint64() % (1 << 48)},
		})
	}
	for i := 0; i < r.Intn(20); i++ {
		s := r.Uint64() % 1000
		l.Ranges = append(l.Ranges, Range{
			Loc: int32(r.Intn(100)), Thread: int32(r.Intn(5)),
			Start: s, End: s + r.Uint64()%100,
			W: TC{int32(r.Intn(5)) - 1, r.Uint64() % 1000}, HasWrite: r.Intn(2) == 0,
			StartsWithRead: r.Intn(2) == 0,
		})
	}
	for i := 0; i < r.Intn(4); i++ {
		var recs []SyscallRec
		for j := 0; j < r.Intn(10); j++ {
			recs = append(recs, SyscallRec{Seq: uint64(j + 1), Value: r.Int63() - r.Int63()})
		}
		if recs != nil {
			l.Syscalls[int32(i)] = recs
		}
	}
	l.SpaceLongs = r.Int63n(1 << 40)
	return l
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		var buf bytes.Buffer
		if err := Encode(&buf, l); err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(l, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
