package light

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// FuzzComputeSchedule drives the offline pipeline on decoded bytes:
// trace.Decode, ComputeSchedule, CheckSchedule, and, when the checker
// accepts the schedule, the replay gate table. None of them may panic,
// whatever the bytes say, and a counter near 2^63 or a location near 2^31
// must not make the index allocate in proportion to it. Every input that
// solves also runs the propagation differential (diffPropagation), which
// holds the chain check's decided locations and their counted
// disjunctions to the enumeration of every disjunction. The seeds are
// encoded golden recordings and the malformed shapes checkLogShape
// rejects, plus a far location and a far counter, which are well formed.
func FuzzComputeSchedule(f *testing.F) {
	for _, name := range []string{"bug-Cache4j", "srv-proxy", "fuzz-cdcl-1loc"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name+".lightlog"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seeds := []*trace.Log{
		{
			Threads: []string{"0", "0.1"},
			Deps:    []trace.Dep{{Loc: 1 << 30, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}}},
		},
		{
			Threads: []string{"0", "0.1"},
			Deps:    []trace.Dep{{Loc: 0, W: trace.TC{Thread: 1, Counter: 1 << 62}, R: trace.TC{Thread: 0, Counter: 2}}},
			Ranges:  []trace.Range{{Loc: 0, Thread: 1, Start: 0, End: 1 << 62, HasWrite: true}},
		},
	}
	for _, log := range malformedLogs() {
		seeds = append(seeds, log)
	}
	for _, log := range seeds {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, log); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		sched, err := ComputeSchedule(log)
		if err != nil {
			return
		}
		if err := diffPropagation(log); err != nil {
			t.Fatal(err)
		}
		if CheckSchedule(log, sched) != nil {
			return
		}
		if g := sched.gates(); len(g.wait) != len(sched.Order) {
			t.Fatalf("wait table has %d entries for %d positions", len(g.wait), len(sched.Order))
		}
	})
}
