package light

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compiler"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Golden schedules: the graph-first engine's output on a fixed set of logs
// is pinned byte for byte, so a refactor of schedule synthesis can prove it
// moved nothing. The logs are committed recordings (testdata/golden/*.lightlog)
// of the 24 workloads, the 3 multicore workloads and the 8 bug models, plus
// the synthetic residual and bridged logs built in code. For each log the
// pin is the sha256 of the schedule order, every non-timing ScheduleStats
// field, and — for logs that reach CDCL(T) — the component cache keys the
// solve stored, which are also the persisted solve-cache keys.
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
	Keys  []string    `json:"cache_keys,omitempty"`
	// Explain digests ExplainAccess's JSON for a spread of scheduled
	// accesses, pinning the forensic constraint view alongside the order.
	Explain string `json:"explain_sha256"`
}

// goldenStats is ScheduleStats without the wall-clock fields.
type goldenStats struct {
	IntVars, Disjunctions, Conjunctive, Resolved int
	Components, LargestComponent                 int
	FastpathComponents, CacheHits, CacheMisses   int
	SolveJobs, SolveWorkers                      int
	Decisions, Conflicts, Propagations, Restarts int64
	TheoryChecks, Seeded                         int64
	SolverClauses, SolverVars                    int
}

func pinStats(s ScheduleStats) goldenStats {
	return goldenStats{
		IntVars: s.IntVars, Disjunctions: s.Disjunctions, Conjunctive: s.Conjunctive, Resolved: s.Resolved,
		Components: s.Components, LargestComponent: s.LargestComponent,
		FastpathComponents: s.FastpathComponents, CacheHits: s.CacheHits, CacheMisses: s.CacheMisses,
		SolveJobs: s.SolveJobs, SolveWorkers: s.SolveWorkers,
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
	srcs = append(srcs,
		goldenSource{name: "synthetic-residual", log: residualLog},
		goldenSource{name: "synthetic-bridged", log: bridgedResidualLog},
		goldenSource{name: "synthetic-replicated", log: func() *trace.Log { return replicatedResidualLog(4) }},
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

// solveGolden solves one log on a cold in-memory cache and returns its pin.
// The cache keys are read back from the component cache: every CDCL(T)
// component misses on a cold cache and stores its key.
func solveGolden(t *testing.T, name string, log *trace.Log) (goldenPin, *Schedule) {
	t.Helper()
	ResetScheduleCache()
	sched, err := ComputeScheduleJobs(log, 4)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("%s: checker: %v", name, err)
	}
	pin := goldenPin{Name: name, Order: orderHash(sched.Order), Stats: pinStats(sched.Stats)}
	schedCache.mu.Lock()
	for k := range schedCache.m {
		pin.Keys = append(pin.Keys, hex.EncodeToString(k[:]))
	}
	schedCache.mu.Unlock()
	sort.Strings(pin.Keys)
	pin.Explain = explainHash(t, log, sched)
	return pin, sched
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

// TestGoldenSchedules pins the engine's schedules, stats and cache keys on
// every golden log (solved with 4 workers), and checks a serial solve lands
// on the same order.
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
		pin, sched := solveGolden(t, src.name, log)
		got = append(got, pin)

		serial, err := ComputeScheduleJobs(log, 1)
		if err != nil {
			t.Fatalf("%s: serial solve: %v", src.name, err)
		}
		if d := DiffSchedules(serial, sched); !d.Equal() {
			t.Errorf("%s: 4-worker schedule differs from serial: %s", src.name, d)
		}
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
		if strings.Join(pin.Keys, ",") != strings.Join(w.Keys, ",") {
			t.Errorf("%s: cache keys %v, golden %v", src.name, pin.Keys, w.Keys)
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
