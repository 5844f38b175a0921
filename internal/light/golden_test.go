package light

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Golden schedules: the graph-first engine's output on a fixed set of logs
// is pinned byte for byte, so a refactor of schedule synthesis can prove it
// moved nothing. The logs are committed recordings (testdata/golden/*.lightlog)
// of the 24 workloads, the 3 multicore workloads, the 8 bug models and two
// perturbed lightfuzz programs that keep residual disjunctions, plus the
// synthetic residual, bridged, replicated and merge-cycle logs built in
// code (the last is the only one that reaches CDCL(T)). For
// each log the pin is the sha256 of the schedule order, every non-timing
// ScheduleStats field, and an ExplainAccess digest.
//
// To re-pin after an intended schedule change:
//
//	go test ./internal/light -run TestGoldenSchedules -update-golden
//
// which records any missing log (GOMAXPROCS 1, O1, seed 11) and rewrites
// testdata/golden/schedules.json. Existing logs are never re-recorded.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden schedule pins")

const goldenDir = "testdata/golden"

// goldenPin is one log's pinned schedule.
type goldenPin struct {
	Name  string      `json:"name"`
	Order string      `json:"order_sha256"`
	Stats goldenStats `json:"stats"`
	// Explain digests ExplainAccess's JSON for a spread of scheduled
	// accesses, pinning the forensic constraint view alongside the order.
	Explain string `json:"explain_sha256"`
}

// goldenStats is ScheduleStats without the wall-clock fields.
type goldenStats struct {
	IntVars, Disjunctions, Conjunctive, Resolved     int
	Components, LargestComponent, FastpathComponents int
	Decisions, Conflicts, Propagations, Restarts     int64
	TheoryChecks, Seeded                             int64
	SolverClauses, SolverVars                        int
}

func pinStats(s ScheduleStats) goldenStats {
	return goldenStats{
		IntVars: s.IntVars, Disjunctions: s.Disjunctions, Conjunctive: s.Conjunctive, Resolved: s.Resolved,
		Components: s.Components, LargestComponent: s.LargestComponent, FastpathComponents: s.FastpathComponents,
		Decisions: s.Solver.Decisions, Conflicts: s.Solver.Conflicts, Propagations: s.Solver.Propagations,
		Restarts: s.Solver.Restarts, TheoryChecks: s.Solver.TheoryChecks, Seeded: s.Solver.Seeded,
		SolverClauses: s.Solver.Clauses, SolverVars: s.Solver.Vars,
	}
}

// orderHash digests a schedule order as (thread, counter) pairs.
func orderHash(order []trace.TC) string {
	h := sha256.New()
	var buf [12]byte
	for _, tc := range order {
		binary.LittleEndian.PutUint32(buf[:4], uint32(tc.Thread))
		binary.LittleEndian.PutUint64(buf[4:], tc.Counter)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSource is one pinned log: a committed recording of a program, or a
// synthetic log.
type goldenSource struct {
	name   string
	record func() (*trace.Log, error) // nil for synthetic logs
	log    func() *trace.Log
}

func goldenSources() []goldenSource {
	var srcs []goldenSource
	recordProg := func(compile func() (*compiler.Program, error), cfg RunConfig, want func(*trace.Log) bool, tries int) func() (*trace.Log, error) {
		return func() (*trace.Log, error) {
			prog, err := compile()
			if err != nil {
				return nil, err
			}
			var log *trace.Log
			for i := 0; i < tries; i++ {
				cfg.Seed = 11 + uint64(i)
				log = Record(prog, Options{O1: true}, cfg).Log
				if want(log) {
					break
				}
			}
			return log, nil
		}
	}
	always := func(*trace.Log) bool { return true }
	for _, w := range append(workloads.All(), workloads.Parallel()...) {
		srcs = append(srcs, goldenSource{name: w.Name, record: recordProg(w.Compile, RunConfig{}, always, 1)})
	}
	for _, b := range bugs.All() {
		// Prefer a recording in which the bug manifested, as Table 1 does.
		hit := func(l *trace.Log) bool { return len(l.Bugs) > 0 }
		srcs = append(srcs, goldenSource{
			name:   "bug-" + b.ID,
			record: recordProg(b.Compile, RunConfig{SleepUnit: b.SleepUnit}, hit, b.MaxSeeds),
		})
	}
	// Two perturbed lightfuzz recordings (-perturb 30, GOMAXPROCS 2) whose
	// systems keep residual disjunctions after propagation, so tier 2 runs
	// on real traffic: generator seed 2 / schedule seed 0 leaves them on one
	// location, generator seed 613 / schedule seed 1 on two locations of
	// one cluster-graph cycle. Both are decided by construction. They
	// cannot be re-recorded.
	for _, name := range []string{"fuzz-cdcl-1loc", "fuzz-cdcl-2loc"} {
		srcs = append(srcs, goldenSource{name: name, record: func() (*trace.Log, error) {
			return nil, fmt.Errorf("%s: a committed lightfuzz recording; restore it from version control", name)
		}})
	}
	srcs = append(srcs,
		goldenSource{name: "synthetic-residual", log: residualLog},
		goldenSource{name: "synthetic-bridged", log: bridgedResidualLog},
		goldenSource{name: "synthetic-replicated", log: func() *trace.Log { return replicatedResidualLog(4) }},
		goldenSource{name: "synthetic-merge-cycle", log: mergeCycleLog},
	)
	return srcs
}

// loadGoldenLog decodes a committed recording, recording it first when
// updating and the file is missing.
func loadGoldenLog(t *testing.T, src goldenSource) *trace.Log {
	t.Helper()
	if src.log != nil {
		return src.log()
	}
	path := filepath.Join(goldenDir, src.name+".lightlog")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) && *updateGolden {
		old := runtime.GOMAXPROCS(1)
		log, rerr := src.record()
		runtime.GOMAXPROCS(old)
		if rerr != nil {
			t.Fatal(rerr)
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, log); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
	} else if err != nil {
		t.Fatal(err)
	}
	log, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return log
}

// solveGolden solves one log and returns its pin.
func solveGolden(t *testing.T, name string, log *trace.Log) goldenPin {
	t.Helper()
	sched, err := ComputeSchedule(log)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("%s: checker: %v", name, err)
	}
	checkPositions(t, name, log, sched)
	pin := goldenPin{Name: name, Order: orderHash(sched.Order), Stats: pinStats(sched.Stats)}
	pin.Explain = explainHash(t, log, sched)
	return pin
}

// explainSamples bounds the accesses explainHash explains per log (each
// call generates its access's location's constraints).
const explainSamples = 24

// explainHash digests ExplainAccess over evenly spaced scheduled accesses.
func explainHash(t *testing.T, log *trace.Log, sched *Schedule) string {
	t.Helper()
	h := sha256.New()
	step := len(sched.Order)/explainSamples + 1
	for i := 0; i < len(sched.Order); i += step {
		data, err := json.Marshal(ExplainAccess(log, sched.Order[i], sched))
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSchedules pins the engine's schedules, stats and ExplainAccess
// digests on every golden log, and checks the schedule position lookup
// there.
func TestGoldenSchedules(t *testing.T) {
	pinPath := filepath.Join(goldenDir, "schedules.json")
	want := map[string]goldenPin{}
	if !*updateGolden {
		data, err := os.ReadFile(pinPath)
		if err != nil {
			t.Fatal(err)
		}
		var pins []goldenPin
		if err := json.Unmarshal(data, &pins); err != nil {
			t.Fatal(err)
		}
		for _, p := range pins {
			want[p.Name] = p
		}
	}

	var got []goldenPin
	for _, src := range goldenSources() {
		log := loadGoldenLog(t, src)
		pin := solveGolden(t, src.name, log)
		got = append(got, pin)
		if *updateGolden {
			continue
		}
		w, ok := want[src.name]
		if !ok {
			t.Errorf("%s: no golden pin (run with -update-golden)", src.name)
			continue
		}
		if pin.Order != w.Order {
			t.Errorf("%s: order hash %s, golden %s", src.name, pin.Order, w.Order)
		}
		if pin.Stats != w.Stats {
			t.Errorf("%s: stats\n got  %+v\n want %+v", src.name, pin.Stats, w.Stats)
		}
		if pin.Explain != w.Explain {
			t.Errorf("%s: ExplainAccess digest %s, golden %s", src.name, pin.Explain, w.Explain)
		}
	}
	if len(got) != len(want) && !*updateGolden {
		t.Errorf("%d golden logs, %d pins", len(got), len(want))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPositions checks the gate table's position lookup against Order:
// Order[i] is at i, and an access Order does not list, or whose thread the
// log's table lacks, has no position.
func checkPositions(t *testing.T, name string, log *trace.Log, sched *Schedule) {
	t.Helper()
	last := make(map[int32]uint64)
	for i, tc := range sched.Order {
		if p, ok := sched.position(tc); !ok || p != i {
			t.Fatalf("%s: position(%+v) = %d, %v; want %d", name, tc, p, ok, i)
		}
		// A counter strictly between two of a thread's entries is
		// unscheduled.
		if prev, seen := last[tc.Thread]; seen && tc.Counter > prev+1 {
			if p, ok := sched.position(trace.TC{Thread: tc.Thread, Counter: prev + 1}); ok {
				t.Fatalf("%s: unscheduled t%d#%d found at %d", name, tc.Thread, prev+1, p)
			}
		}
		last[tc.Thread] = tc.Counter
	}
	for th, c := range last {
		if p, ok := sched.position(trace.TC{Thread: th, Counter: c + 1}); ok {
			t.Fatalf("%s: unscheduled t%d#%d found at %d", name, th, c+1, p)
		}
	}
	for _, th := range []int32{trace.InitialThread, int32(len(log.Threads))} {
		if p, ok := sched.position(trace.TC{Thread: th, Counter: 1}); ok {
			t.Fatalf("%s: thread %d outside the table found at %d", name, th, p)
		}
	}
}
