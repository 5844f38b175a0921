package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// buildLightrr compiles the CLI once per test binary into a temp dir.
func buildLightrr(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lightrr")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lightrr: %v\n%s", err, out)
	}
	return bin
}

// run executes the binary and returns combined output and exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("lightrr %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

const quickstartSrc = `
class Counter { field n; }
var c = null;

fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    c.n = c.n + 1;
  }
}

fun main() {
  c = new Counter();
  c.n = 0;
  var t1 = spawn bump(50);
  var t2 = spawn bump(50);
  join t1; join t2;
  print("final count:", c.n);
}
`

// TestEndToEndQuickstart drives the full quickstart flow through the built
// binary: record -> inspect -> solve -> replay, checking output shape and
// that the replayed run prints the exact recorded final count.
func TestEndToEndQuickstart(t *testing.T) {
	bin := buildLightrr(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "quickstart.mj")
	if err := os.WriteFile(prog, []byte(quickstartSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "run.lightlog")

	out, code := run(t, bin, "record", "-seed", "42", "-o", logPath, prog)
	if code != 0 {
		t.Fatalf("record exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "recorded ") || !strings.Contains(out, "long-integers") {
		t.Fatalf("record output missing log summary:\n%s", out)
	}
	var final string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[0] final count:") {
			final = line
		}
	}
	if final == "" {
		t.Fatalf("record output missing main thread's final count:\n%s", out)
	}

	out, code = run(t, bin, "inspect", logPath)
	if code != 0 {
		t.Fatalf("inspect exited %d:\n%s", code, out)
	}

	out, code = run(t, bin, "solve", logPath)
	if code != 0 {
		t.Fatalf("solve exited %d:\n%s", code, out)
	}
	for _, want := range []string{"log: ", "constraints: ", "components: ", "schedule: ", "gated accesses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("solve output missing %q:\n%s", want, out)
		}
	}

	out, code = run(t, bin, "replay", "-log", logPath, prog)
	if code != 0 {
		t.Fatalf("replay exited %d:\n%s", code, out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("replay diverged:\n%s", out)
	}
	if !strings.Contains(out, "recorded behavior reproduced (Definition 3.3 correlation holds)") {
		t.Fatalf("replay did not report reproduction:\n%s", out)
	}
	if !strings.Contains(out, final) {
		t.Fatalf("replay did not print the recorded final count %q:\n%s", final, out)
	}
}

// TestEndToEndBugRepro drives the bugrepro flow: loop record seeds until the
// Tomcat-50885 race manifests (a thread errors), then replay the log and
// require the same failure to reappear in the same thread.
func TestEndToEndBugRepro(t *testing.T) {
	b := bugs.ByID("Tomcat-50885")
	if b == nil {
		t.Fatal("bug Tomcat-50885 missing")
	}
	bin := buildLightrr(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "bug.mj")
	if err := os.WriteFile(prog, []byte(b.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "bug.lightlog")
	sleepUnit := fmt.Sprint(b.SleepUnit)

	var bugLine string
	for seed := 0; seed < b.MaxSeeds; seed++ {
		out, code := run(t, bin, "record", "-seed", fmt.Sprint(seed), "-sleep-unit", sleepUnit, "-o", logPath, prog)
		if code != 0 {
			t.Fatalf("record exited %d:\n%s", code, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "!!") {
				bugLine = line
			}
		}
		if bugLine != "" {
			t.Logf("seed %d manifested the bug: %s", seed, bugLine)
			break
		}
	}
	if bugLine == "" {
		t.Fatalf("bug did not manifest in %d seeds", b.MaxSeeds)
	}

	out, code := run(t, bin, "replay", "-log", logPath, prog)
	if code != 0 {
		t.Fatalf("replay exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "recorded behavior reproduced (Definition 3.3 correlation holds)") {
		t.Fatalf("replay did not reproduce the bug:\n%s", out)
	}
	if !strings.Contains(out, bugLine) {
		t.Fatalf("replay output missing the recorded failure line %q:\n%s", bugLine, out)
	}
}

// TestFlightTracePhases checks that the Chrome trace written by
// -flight-trace carries every pipeline phase span on its pipeline process:
// record and encode from a record run, the schedule phases and replay from
// a replay of its log.
func TestFlightTracePhases(t *testing.T) {
	bin := buildLightrr(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "quickstart.mj")
	if err := os.WriteFile(prog, []byte(quickstartSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "run.lightlog")
	phases := map[string]bool{}
	for _, args := range [][]string{
		{"record", "-seed", "42", "-o", logPath, "-flight-trace", filepath.Join(dir, "record.json"), prog},
		{"replay", "-log", logPath, "-flight-trace", filepath.Join(dir, "replay.json"), prog},
	} {
		if out, code := run(t, bin, args...); code != 0 {
			t.Fatalf("lightrr %s exited %d:\n%s", args[0], code, out)
		}
		raw, err := os.ReadFile(args[len(args)-2])
		if err != nil {
			t.Fatal(err)
		}
		var tr flight.ChromeTrace
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%s trace is not valid JSON: %v", args[0], err)
		}
		for _, e := range tr.TraceEvents {
			if e.PID == flight.PIDPhases && e.Phase == "X" {
				if e.Dur < 0 {
					t.Errorf("span %s has negative duration", e.Name)
				}
				phases[e.Name] = true
			}
		}
	}
	for _, want := range []string{"record", "encode", "build", "propagate", "partition", "topo", "gates", "replay"} {
		if !phases[want] {
			t.Errorf("flight traces missing phase span %q (got %v)", want, phases)
		}
	}
}

// TestCLIErrors locks in the exit-code contract: 2 for usage errors, 1 for
// fatal input errors.
func TestCLIErrors(t *testing.T) {
	bin := buildLightrr(t)

	out, code := run(t, bin, "frobnicate")
	if code != 2 || !strings.Contains(out, "usage:") {
		t.Fatalf("unknown command: exit %d, output:\n%s", code, out)
	}
	if _, code = run(t, bin); code != 2 {
		t.Fatalf("no command: exit %d", code)
	}
	if out, code = run(t, bin, "run", "/nonexistent.mj"); code != 1 {
		t.Fatalf("missing file: exit %d, output:\n%s", code, out)
	}
	bad := filepath.Join(t.TempDir(), "bad.mj")
	if err := os.WriteFile(bad, []byte("fun main() {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code = run(t, bin, "run", bad); code != 1 {
		t.Fatalf("compile error: exit %d, output:\n%s", code, out)
	}
}

// TestMalformedLogRejected: a log whose deps and ranges contradict each
// other (t0:2, inside t0's write range, reads t1's write), one with a
// negative location and one naming a thread outside its thread table are
// input errors. solve and replay -log exit 1 naming them and replay
// nothing, while a recorded log still solves and replays.
func TestMalformedLogRejected(t *testing.T) {
	bin := buildLightrr(t)
	dir := t.TempDir()
	prog := filepath.Join(dir, "quickstart.mj")
	if err := os.WriteFile(prog, []byte(quickstartSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each log is one no recording produces: deps and ranges that
	// contradict each other (the checker rejects the solved order), a
	// negative location and a thread outside the thread table (both
	// rejected before solving).
	bad := map[string]*trace.Log{
		"interior-read": {
			Threads: []string{"t0", "t1", "t2"},
			NumLocs: 1,
			Deps: []trace.Dep{
				{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
			},
			Ranges: []trace.Range{
				{Loc: 0, Thread: 0, Start: 1, End: 3, HasWrite: true},
				{Loc: 0, Thread: 2, Start: 1, End: 2, HasWrite: true},
			},
		},
		"negative-loc": {
			Threads: []string{"t0", "t1"},
			NumLocs: 1,
			Deps: []trace.Dep{
				{Loc: -3, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
			},
		},
		"thread-off-table": {
			Threads: []string{"t0", "t1"},
			NumLocs: 1,
			Deps: []trace.Dep{
				{Loc: 0, W: trace.TC{Thread: 1, Counter: 1}, R: trace.TC{Thread: 0, Counter: 2}},
			},
			Ranges: []trace.Range{
				{Loc: 0, Thread: 2, Start: 1, End: 2, HasWrite: true},
			},
		},
	}
	for name, log := range bad {
		path := filepath.Join(dir, name+".lightlog")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Encode(f, log); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"solve", path}, {"replay", "-log", path, prog}} {
			out, code := run(t, bin, args...)
			if code != 1 || !strings.Contains(out, "malformed log: ") {
				t.Errorf("%s: lightrr %s: exit %d, want 1 with \"malformed log\":\n%s", name, args[0], code, out)
			}
			if strings.Contains(out, "schedule: ") {
				t.Errorf("%s: lightrr %s went on past the rejected log:\n%s", name, args[0], out)
			}
		}
	}

	good := filepath.Join(dir, "run.lightlog")
	if out, code := run(t, bin, "record", "-seed", "42", "-o", good, prog); code != 0 {
		t.Fatalf("record exited %d:\n%s", code, out)
	}
	for _, args := range [][]string{{"solve", good}, {"replay", "-log", good, prog}} {
		if out, code := run(t, bin, args...); code != 0 || strings.Contains(out, "malformed") {
			t.Errorf("lightrr %s of a recorded log: exit %d:\n%s", args[0], code, out)
		}
	}
}
