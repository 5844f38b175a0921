package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/trace"
)

// metricLine extracts the value field of an unlabeled metric sample from
// Prometheus text output ("" when absent).
func metricLine(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// smokeSrc is the workload lightd records in the smoke test: a contended
// counter with a per-thread sleep so each run takes tens of milliseconds
// — long enough that a SIGKILL lands mid-epoch, not on a cut boundary.
const smokeSrc = `
class Counter { field n; }
var c = null;

fun bump(k) {
  for (var i = 0; i < k; i = i + 1) {
    c.n = c.n + 1;
  }
  sleep(10);
}

fun main() {
  c = new Counter();
  c.n = 0;
  var t1 = spawn bump(25);
  var t2 = spawn bump(25);
  join t1; join t2;
}
`

// buildLightd compiles the daemon once per test into a temp dir.
func buildLightd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lightd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/lightd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a listen address for the daemon under test.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// apiClient drives the daemon's HTTP API and records which documented
// routes the test exercised, so TestLightdSmoke can prove it covered the
// whole table.
type apiClient struct {
	t    *testing.T
	base string
	hit  map[string]bool
}

func newClient(t *testing.T, addr string) *apiClient {
	return &apiClient{t: t, base: "http://" + addr, hit: map[string]bool{}}
}

// call performs one request against a route-table entry. path is the
// concrete URL (IDs and query filled in); key is the table's pattern.
func (c *apiClient) call(method, key, path string, body []byte) (int, []byte) {
	c.t.Helper()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	c.hit[method+" "+key] = true
	return resp.StatusCode, out
}

// getJSON fetches a route and decodes its body, failing on non-200.
func (c *apiClient) getJSON(key, path string, v any) {
	c.t.Helper()
	code, body := c.call("GET", key, path, nil)
	if code != http.StatusOK {
		c.t.Fatalf("GET %s: %d\n%s", path, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		c.t.Fatalf("GET %s: decoding: %v\n%s", path, err, body)
	}
}

// startDaemon launches the binary and waits for /healthz; it returns the
// running process (cleanup registered for normal test exits).
func startDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon logs:\n%s", logs.String())
		}
	})
	return cmd
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// TestLightdSmoke is the end-to-end crash drill from docs/OPERATIONS.md:
// record across several epoch cuts, SIGKILL the daemon mid-epoch, restart
// it on the same directory, verify WAL recovery sealed the interrupted
// epoch, replay it with fingerprint verification, and touch every
// documented API endpoint along the way.
func TestLightdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e smoke test")
	}
	bin := buildLightd(t)
	dir := filepath.Join(t.TempDir(), "data")
	prog := filepath.Join(t.TempDir(), "smoke.mj")
	if err := os.WriteFile(prog, []byte(smokeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	args := []string{
		"-addr", addr, "-dir", dir, "-prog", prog,
		"-epoch-runs", "2", "-sleep-unit", "2000000", "-retain-epochs", "-1",
	}

	// Phase 1: record until three epochs are sealed and a fourth is open
	// with exactly one run in it, then kill -9.
	first := startDaemon(t, bin, args...)
	waitHealthy(t, addr)
	c := newClient(t, addr)
	var st statusBody
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("never reached 3 cuts + 1 run in the open epoch: %+v", st)
		}
		c.getJSON("/status", "/status", &st)
		if st.Session != nil && st.Session.EpochsCut >= 3 &&
			st.Session.RunsTotal-2*st.Session.EpochsCut == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.Wait()

	// Phase 2: restart on the same directory, idle. Recovery must seal the
	// interrupted epoch from its WAL.
	addr2 := freeAddr(t)
	startDaemon(t, bin,
		"-addr", addr2, "-dir", dir, "-prog", prog, "-no-session", "-retain-epochs", "-1")
	waitHealthy(t, addr2)
	c = newClient(t, addr2)

	c.getJSON("/status", "/status", &st)
	if !strings.Contains(st.Startup, "recovered=1") {
		t.Fatalf("startup recovery = %q, want recovered=1", st.Startup)
	}
	var list struct {
		Epochs []epoch.Meta `json:"epochs"`
	}
	c.getJSON("/epochs", "/epochs", &list)
	if len(list.Epochs) < 4 {
		t.Fatalf("epochs after restart = %d, want >= 4", len(list.Epochs))
	}
	newest := list.Epochs[len(list.Epochs)-1]
	if newest.State != epoch.StateSealed || !newest.Recovered || newest.Runs != 1 {
		t.Fatalf("newest epoch = %+v, want crash-sealed with 1 run", newest)
	}
	for _, m := range list.Epochs[:len(list.Epochs)-1] {
		if m.State != epoch.StateSealed || m.Recovered {
			t.Fatalf("pre-crash epoch = %+v, want cleanly sealed", m)
		}
	}

	// Telemetry survived the SIGKILL: the cleanly cut epochs' sealed 'T'
	// rows reload from the WAL with their session-fused fields intact,
	// and the crash-sealed epoch got a synthesized partial row.
	var hist historyBody
	c.getJSON("/history", "/history?n=100", &hist)
	if len(hist.Rows) < 4 {
		t.Fatalf("/history rows after restart = %d, want >= 4", len(hist.Rows))
	}
	var cleanStats epoch.Telemetry
	c.getJSON("/epochs/{id}/stats", fmt.Sprintf("/epochs/%d/stats", list.Epochs[0].ID), &cleanStats)
	if cleanStats.Partial || cleanStats.Recovered || cleanStats.Runs != 2 || cleanStats.NativeNS <= 0 {
		t.Fatalf("clean epoch stats survived wrong: %+v", cleanStats)
	}
	var crashStats epoch.Telemetry
	c.getJSON("/epochs/{id}/stats", fmt.Sprintf("/epochs/%d/stats", newest.ID), &crashStats)
	if !crashStats.Partial || !crashStats.Recovered || crashStats.Runs != 1 {
		t.Fatalf("crash-sealed epoch stats = %+v, want partial recovered row with 1 run", crashStats)
	}
	// /history and /epochs/{id}/stats serve the same rows.
	last := hist.Rows[len(hist.Rows)-1]
	if last.EpochID != crashStats.EpochID || last.Events != crashStats.Events {
		t.Fatalf("history newest %+v != stats %+v", last, crashStats)
	}

	// SLO-aware health: the newest row is crash-recovered, so the daemon
	// reports degraded (still 200 — degraded alerts, it doesn't restart).
	code, raw := c.call("GET", "/healthz", "/healthz", nil)
	var h epoch.Health
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, raw)
	}
	if code != http.StatusOK || h.State != epoch.HealthDegraded {
		t.Fatalf("healthz after crash recovery = %d %+v, want 200 degraded", code, h)
	}

	// Phase 3: replay the recovered epoch and a cleanly sealed one, with
	// heap-fingerprint verification.
	for _, id := range []uint64{newest.ID, list.Epochs[0].ID} {
		var v epoch.Verdict
		c.getJSON("/epochs/{id}/replay", fmt.Sprintf("/epochs/%d/replay", id), &v)
		if !v.Pass || len(v.Runs) == 0 {
			t.Fatalf("epoch %d replay verdict = %+v, want pass", id, v)
		}
		for _, rv := range v.Runs {
			if !rv.FingerprintOK || rv.Diverged {
				t.Fatalf("epoch %d run %d = %+v", id, rv.Index, rv)
			}
		}
	}

	// Phase 4: the rest of the documented surface.
	var one epoch.Meta
	c.getJSON("/epochs/{id}", fmt.Sprintf("/epochs/%d", newest.ID), &one)
	if one.ID != newest.ID {
		t.Fatalf("epoch %d detail = %+v", newest.ID, one)
	}

	code, raw = c.call("GET", "/epochs/{id}/log", fmt.Sprintf("/epochs/%d/log?run=0", newest.ID), nil)
	if code != http.StatusOK {
		t.Fatalf("log download: %d\n%s", code, raw)
	}
	if _, err := trace.Decode(bytes.NewReader(raw)); err != nil {
		t.Fatalf("downloaded log does not decode: %v", err)
	}

	var fb forensicsBody
	c.getJSON("/epochs/{id}/forensics", fmt.Sprintf("/epochs/%d/forensics", newest.ID), &fb)
	if fb.Verdict.Diverged || !fb.Verdict.FingerprintOK {
		t.Fatalf("forensics verdict = %+v", fb.Verdict)
	}

	var sessions struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	c.getJSON("/sessions", "/sessions", &sessions)
	if len(sessions.Sessions) != 0 {
		t.Fatalf("idle daemon reports sessions: %v", sessions.Sessions)
	}

	// Start a short on-demand session over the API and let it finish.
	cfgBody, _ := json.Marshal(epoch.SessionConfig{
		Source: smokeSrc, SeedBase: 100, EpochRuns: 1, MaxRuns: 1,
	})
	code, raw = c.call("POST", "/sessions", "/sessions", cfgBody)
	if code != http.StatusCreated {
		t.Fatalf("POST /sessions: %d\n%s", code, raw)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("API-started session never finished")
		}
		c.getJSON("/status", "/status", &st)
		if st.Session != nil && !st.Session.Running {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Session.Err != "" {
		t.Fatalf("API session error: %s", st.Session.Err)
	}
	code, raw = c.call("POST", "/sessions/stop", "/sessions/stop", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /sessions/stop: %d\n%s", code, raw)
	}

	// The clean seal replaced the crash-recovered row as newest, so health
	// transitions degraded→ok — the restart drill observes both edges.
	code, raw = c.call("GET", "/healthz", "/healthz", nil)
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, raw)
	}
	if code != http.StatusOK || h.State != epoch.HealthOK {
		t.Fatalf("healthz after clean seal = %d %+v, want 200 ok", code, h)
	}
	c.getJSON("/history", "/history", &hist)
	if newestRow := hist.Rows[len(hist.Rows)-1]; newestRow.Partial || newestRow.Recovered {
		t.Fatalf("newest history row after clean seal = %+v, want full clean row", newestRow)
	}

	// SLO thresholds are readable and runtime-replaceable.
	var slo epoch.SLO
	c.getJSON("/slo", "/slo", &slo)
	if slo.MaxOverhead <= 0 || slo.MaxSealMS <= 0 {
		t.Fatalf("default slo = %+v", slo)
	}
	sloBody, _ := json.Marshal(slo)
	if code, raw = c.call("POST", "/slo", "/slo", sloBody); code != http.StatusOK {
		t.Fatalf("POST /slo: %d\n%s", code, raw)
	}

	var gc struct {
		Pruned int   `json:"pruned_epochs"`
		Freed  int64 `json:"freed_bytes"`
	}
	code, raw = c.call("POST", "/gc", "/gc", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /gc: %d\n%s", code, raw)
	}
	if err := json.Unmarshal(raw, &gc); err != nil {
		t.Fatalf("gc body: %v\n%s", err, raw)
	}
	if gc.Pruned != 0 {
		t.Fatalf("gc with unlimited retention pruned %d epochs", gc.Pruned)
	}

	code, raw = c.call("GET", "/metrics", "/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(raw), "epoch_runs_recorded_total") {
		t.Fatalf("metrics: %d\n%s", code, raw)
	}
	for _, want := range []string{
		"light_build_info{", "lightd_uptime_seconds", "lightd_health_state",
		"lightd_health_transitions_total", "epoch_fsyncs_total",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The restart drill produced both health edges (ok→degraded at the
	// first post-recovery probe, degraded→ok after the clean seal).
	var transitions int
	fmt.Sscanf(metricLine(string(raw), "lightd_health_transitions_total"), "%d", &transitions)
	if transitions < 2 {
		t.Errorf("lightd_health_transitions_total = %d, want >= 2\n%s", transitions, raw)
	}

	// Typed-error mapping: a missing epoch is a 404.
	if code, _ = c.call("GET", "/epochs/{id}", "/epochs/999999", nil); code != http.StatusNotFound {
		t.Fatalf("missing epoch: %d, want 404", code)
	}

	// The smoke test must exercise the entire documented route table.
	for _, r := range (&daemon{}).routes() {
		if !c.hit[r.method+" "+r.pattern] {
			t.Errorf("documented route never exercised: %s %s", r.method, r.pattern)
		}
	}
}

// TestStartupFailureUnwinds starts lightd with a recording session on an
// address already in use: the store and the session come up, binding the
// listener fails, and the daemon must stop the session and close the store
// (in that order) and exit non-zero with "startup failed". A restart on the
// same data directory must then recover cleanly: the unwound session sealed
// whatever it recorded, so there is nothing to repair.
func TestStartupFailureUnwinds(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	bin := buildLightd(t)
	dir := filepath.Join(t.TempDir(), "data")
	prog := filepath.Join(t.TempDir(), "smoke.mj")
	if err := os.WriteFile(prog, []byte(smokeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin,
		"-addr", busy.Addr().String(), "-dir", dir, "-prog", prog,
		"-epoch-runs", "1", "-sleep-unit", "2000000").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("lightd on a busy address: err = %v, want a non-zero exit\n%s", err, out)
	}
	logs := string(out)
	if !strings.Contains(logs, "startup failed") {
		t.Fatalf("lightd on a busy address did not report \"startup failed\":\n%s", logs)
	}
	stopLine := func(component string) int {
		for i, line := range strings.Split(logs, "\n") {
			if strings.Contains(line, `msg="stopping component"`) && strings.Contains(line, "component="+component) {
				return i
			}
		}
		return -1
	}
	stopSession, stopStore := stopLine("session"), stopLine("store")
	if stopSession < 0 || stopStore < stopSession {
		t.Fatalf("failed start did not stop the session and then the store:\n%s", logs)
	}

	addr := freeAddr(t)
	startDaemon(t, bin, "-addr", addr, "-dir", dir, "-no-session")
	waitHealthy(t, addr)
	c := newClient(t, addr)
	var st statusBody
	c.getJSON("/status", "/status", &st)
	if !strings.Contains(st.Startup, "recovered=0 torn=0 corrupt=0") {
		t.Fatalf("startup recovery after a failed start = %q, want nothing to repair", st.Startup)
	}
	var list struct {
		Epochs []epoch.Meta `json:"epochs"`
	}
	c.getJSON("/epochs", "/epochs", &list)
	for _, m := range list.Epochs {
		if m.State != epoch.StateSealed || m.Recovered {
			t.Fatalf("epoch after a failed start = %+v, want cleanly sealed", m)
		}
	}
}
