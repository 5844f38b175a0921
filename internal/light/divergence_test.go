package light

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Divergence forensics: every replayer detection site must produce a typed
// DivergenceError, and the forensic report must localize the diverging
// access exactly (thread, counter, location).

// recordFaulted records a two-worker counter with one cross-thread
// dependence dropped from the log (Options.FaultDropDep) and returns the
// program, the faulted recording and the dropped dependence.
func recordFaulted(t *testing.T) (*compiler.Program, *RecordOutcome, trace.Dep) {
	t.Helper()
	prog := compile(t, `
class C { field n; }
var c = null;
fun bump(k) { for (var i = 0; i < k; i = i + 1) { c.n = c.n + 1; } }
fun main() {
  c = new C(); c.n = 0;
  var a = spawn bump(20);
  var b = spawn bump(20);
  join a; join b;
  print(c.n);
}
`)
	var (
		mu      sync.Mutex
		dropped *trace.Dep
	)
	fault := func(d trace.Dep) bool {
		mu.Lock()
		defer mu.Unlock()
		if dropped != nil || d.W.IsInitial() || d.W.Thread == d.R.Thread {
			return false
		}
		dd := d
		dropped = &dd
		return true
	}
	rec := Record(prog, Options{O1: false, FaultDropDep: fault}, RunConfig{Seed: 11})
	if dropped == nil {
		t.Fatal("fault injection never fired: no cross-thread dependence recorded")
	}
	return prog, rec, *dropped
}

// TestFaultDropDepForensics is the end-to-end acceptance path: record with
// one cross-thread dependence dropped from the log, replay with flight
// recording on, and check the forensic report names the dropped
// dependence's read event — its thread, counter, and the fact that it is
// unscheduled.
func TestFaultDropDepForensics(t *testing.T) {
	prog, rec, dropped := recordFaulted(t)
	rep, err := Replay(prog, rec.Log, RunConfig{Seed: 11, FlightCapacity: flight.DefaultCapacity})
	if err != nil {
		t.Fatalf("solve failed on the faulted log: %v", err)
	}
	if !rep.Diverged {
		t.Fatal("dropping a dependence did not make the replay diverge")
	}

	div := rep.Divergence
	if div == nil {
		t.Fatal("Diverged set but Divergence nil")
	}
	if div.Kind != DivUnscheduledRead {
		t.Fatalf("kind = %s, want %s", div.Kind, DivUnscheduledRead)
	}
	if div.Thread != dropped.R.Thread || div.Counter != dropped.R.Counter {
		t.Fatalf("divergence localized t%d#%d, dropped dependence read is t%d#%d",
			div.Thread, div.Counter, dropped.R.Thread, dropped.R.Counter)
	}
	if want := rec.Log.Threads[dropped.R.Thread]; div.ThreadPath != want {
		t.Errorf("thread path %q, want %q", div.ThreadPath, want)
	}
	if div.ScheduleLen != len(rep.Schedule.Order) {
		t.Errorf("schedule_len = %d, want %d", div.ScheduleLen, len(rep.Schedule.Order))
	}

	f := rep.Forensics
	if f == nil {
		t.Fatal("no forensic report on divergence")
	}
	if f.Divergence != div {
		t.Error("forensic report carries a different divergence record")
	}
	if f.Explanation == nil {
		t.Fatal("no constraint explanation for a localized divergence")
	}
	if f.Explanation.Scheduled {
		t.Error("the dropped dependence's read must be unscheduled in the corrupted system")
	}
	if len(f.Threads) == 0 {
		t.Error("flight recording was on but the report has no thread events")
	}

	// The human rendering must name the read event and carry the schedule
	// cursor; the JSON rendering must round-trip with the symbolic kind.
	var txt bytes.Buffer
	if err := f.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"REPLAY DIVERGENCE [unscheduled-read]",
		fmt.Sprintf("thread=%d (%s) counter=%d", div.Thread, div.ThreadPath, div.Counter),
		fmt.Sprintf("constraints on t%d#%d", div.Thread, div.Counter),
	} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := f.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back ForensicReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("forensics JSON does not parse: %v", err)
	}
	if back.Divergence == nil || back.Divergence.Kind != DivUnscheduledRead ||
		back.Divergence.Counter != div.Counter {
		t.Errorf("forensics JSON round trip lost the divergence: %+v", back.Divergence)
	}
}

// TestForensicsCarryOnlyOwnReplayRings replays one faulted log three times
// in one process: each forensic report must carry exactly the rings of its
// own replay, one per recorded thread, never those of an earlier replay.
func TestForensicsCarryOnlyOwnReplayRings(t *testing.T) {
	prog, rec, _ := recordFaulted(t)
	for i := 0; i < 3; i++ {
		rep, err := Replay(prog, rec.Log, RunConfig{Seed: 11, FlightCapacity: flight.DefaultCapacity})
		if err != nil {
			t.Fatalf("replay %d: solve failed on the faulted log: %v", i, err)
		}
		if rep.Forensics == nil {
			t.Fatalf("replay %d: no forensic report on divergence", i)
		}
		if got, want := len(rep.Flight), len(rec.Log.Threads); got != want {
			t.Fatalf("replay %d: outcome carries %d rings, want one per thread (%d)", i, got, want)
		}
		labels := map[string]bool{}
		for _, s := range rep.Forensics.Threads {
			if s.Track != "replay" {
				t.Errorf("replay %d: report carries a %q-track ring", i, s.Track)
			}
			if labels[s.Label] {
				t.Errorf("replay %d: thread %q reported twice", i, s.Label)
			}
			labels[s.Label] = true
		}
		if got, want := len(rep.Forensics.Threads), len(rec.Log.Threads); got != want {
			t.Fatalf("replay %d: report carries %d thread rings, want %d", i, got, want)
		}
	}
}

// TestDivergenceTypedOnCorruptedSchedule re-runs the classic corrupted-counter
// scenario and checks the failure is now typed: whichever site fires (a stall
// or an unscheduled read, depending on where the shifted counter lands), the
// replayer must surface a DivergenceError whose rendering matches Failed().
func TestDivergenceTypedOnCorruptedSchedule(t *testing.T) {
	prog, rec := recordCounter(t)
	corrupted := *rec.Log
	corrupted.Deps = append([]trace.Dep(nil), rec.Log.Deps...)
	for i, d := range corrupted.Deps {
		if d.R.Thread != 0 && !d.W.IsInitial() && d.W.Thread != d.R.Thread {
			corrupted.Deps[i].R.Counter += 1000
			break
		}
	}
	sched, err := ComputeSchedule(&corrupted)
	if err != nil {
		return // unsatisfiable is an equally valid detection
	}
	rep := NewReplayer(sched)
	replayWith(prog, rep, &corrupted)
	failed, reason := rep.Failed()
	if !failed {
		t.Fatal("corrupted log replay not flagged")
	}
	div := rep.Divergence()
	if div == nil {
		t.Fatal("failure without a typed divergence record")
	}
	if div.Error() != reason {
		t.Errorf("Failed() reason %q != DivergenceError rendering %q", reason, div.Error())
	}
	switch div.Kind {
	case DivStall:
		if div.Pos != div.Turn || div.Pos >= div.ScheduleLen {
			t.Errorf("stall anchor inconsistent: pos=%d turn=%d len=%d", div.Pos, div.Turn, div.ScheduleLen)
		}
	case DivUnscheduledRead:
		if div.Pos != -1 {
			t.Errorf("unscheduled read carries a schedule position: %d", div.Pos)
		}
	default:
		t.Errorf("unexpected kind %s for a shifted dependence counter", div.Kind)
	}
	if f := BuildForensics(sched, div, nil); f == nil || f.Divergence != div {
		t.Error("BuildForensics did not wrap the divergence")
	}
}

// TestReplayDetectsMissingThreadTyped extends the missing-thread scenario
// with the typed contract: the unknown spawn must be flagged as
// DivUnknownThread with Thread == -1.
func TestReplayDetectsMissingThreadTyped(t *testing.T) {
	prog, rec := recordCounter(t)
	truncated := *rec.Log
	truncated.Threads = truncated.Threads[:1]
	sched, err := ComputeSchedule(&truncated)
	if err != nil {
		return
	}
	rep := NewReplayer(sched)
	replayWith(prog, rep, &truncated)
	if failed, _ := rep.Failed(); !failed {
		t.Fatal("missing-thread replay not flagged")
	}
	div := rep.Divergence()
	if div == nil {
		t.Fatal("failure without a typed divergence record")
	}
	if div.Kind != DivUnknownThread || div.Thread != -1 {
		t.Errorf("kind=%s thread=%d, want %s/-1", div.Kind, div.Thread, DivUnknownThread)
	}
	if div.ThreadPath == "" {
		t.Error("unknown-thread divergence lost the spawn path")
	}
}

// TestDivergenceKindRoundTrip pins the symbolic spellings used in JSON
// reports and by scripts parsing them.
func TestDivergenceKindRoundTrip(t *testing.T) {
	for k, want := range map[DivergenceKind]string{
		DivUnscheduledRead: "unscheduled-read",
		DivStall:           "stall",
		DivUnknownThread:   "unknown-thread",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
		b, err := k.MarshalText()
		if err != nil || string(b) != want {
			t.Errorf("MarshalText(%s) = %q, %v", want, b, err)
		}
		var back DivergenceKind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %v, %v", b, back, err)
		}
	}
	var bad DivergenceKind
	if err := bad.UnmarshalText([]byte("no-such-kind")); err == nil {
		t.Error("UnmarshalText accepted an unknown kind")
	}
}
