package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzTraceRoundTrip asserts the log codec is total on its output and safe
// on arbitrary input: Decode of any byte string either errors cleanly or
// yields a log l with decode(encode(l)) == l, whose re-encoding is a
// fixpoint (encode(decode(b)) decodes to the same bytes again). Seeds
// include valid logs in both formats, so mutations explore near-valid
// inputs of each.
func FuzzTraceRoundTrip(f *testing.F) {
	logs := []*Log{
		{},
		{
			Tool:    "light",
			Seed:    42,
			Threads: []string{"0", "0.0", "0.1"},
			Deps: []Dep{
				{Loc: 0, W: TC{Thread: 1, Counter: 3}, R: TC{Thread: 2, Counter: 5}},
				{Loc: 7, W: TC{Thread: InitialThread}, R: TC{Thread: 0, Counter: 1}},
			},
			Ranges: []Range{
				{Loc: 1, Thread: 2, Start: 4, End: 9, W: TC{Thread: 0, Counter: 2}, HasWrite: true, StartsWithRead: true},
				{Loc: 3, Thread: 0, Start: 1, End: 1},
			},
			Syscalls: map[int32][]SyscallRec{
				0: {{Seq: 1, Value: -9}, {Seq: 2, Value: 1 << 40}},
				2: {{Seq: 5, Value: 0}},
			},
			SpaceLongs: 123,
			Bugs: []Bug{
				{Kind: 1, ThreadPath: "0.1", FuncID: 2, PC: 17, Value: "null", Msg: "npe"},
			},
			NumLocs: 8,
		},
	}
	for _, l := range logs {
		var buf bytes.Buffer
		if err := Encode(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// LIGHTLOG1 seeds: committed golden recordings, in the format they
	// were written in.
	for _, name := range []string{"bug-Weblech", "srv-pool", "fuzz-cdcl-1loc"} {
		data, err := os.ReadFile(filepath.Join("..", "light", "testdata", "golden", name+".lightlog"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("not a trace log"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		var enc1 bytes.Buffer
		if err := Encode(&enc1, l); err != nil {
			t.Fatalf("re-encode of decoded log failed: %v", err)
		}
		l2, err := Decode(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(l, l2) {
			t.Fatalf("decode(encode(l)) != l:\n%+v\nvs\n%+v", l, l2)
		}
		var enc2 bytes.Buffer
		if err := Encode(&enc2, l2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("encoding is not a fixpoint:\n%x\nvs\n%x", enc1.Bytes(), enc2.Bytes())
		}
	})
}
