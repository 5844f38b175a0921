package flight

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestRingBoundAndOrder(t *testing.T) {
	r := NewRing("record", 0, "0", 4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: EvRead, Counter: uint64(i)})
	}
	s := r.Snapshot()
	if s.Track != "record" || s.Thread != 0 || s.Label != "0" {
		t.Errorf("snapshot identity = %q/%d/%q, want record/0/0", s.Track, s.Thread, s.Label)
	}
	if len(s.Events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(s.Events))
	}
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	for i, e := range s.Events {
		if e.Counter != uint64(6+i) {
			t.Errorf("event %d counter = %d, want %d (oldest-first)", i, e.Counter, 6+i)
		}
		if e.TimeNS == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}
}

// TestConcurrentSnapshot exercises a drain racing the single writer; the
// race detector validates the publication discipline.
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRing("record", 0, "0", 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			r.Record(Event{Kind: EvWrite, Counter: uint64(i)})
		}
	}()
	for i := 0; i < 50; i++ {
		r.Snapshot()
	}
	wg.Wait()
}

// TestSnapshotNeverTorn races snapshots against a writer whose every event
// carries A == Counter: a snapshot must never return an event mixing two
// writes, and keeps the events oldest-first.
func TestSnapshotNeverTorn(t *testing.T) {
	r := NewRing("record", 0, "0", 16)
	const events = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < events; i++ {
			r.Record(Event{Kind: EvWrite, Counter: uint64(i), A: int64(i)})
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := r.Snapshot()
		last := int64(-1)
		for _, e := range s.Events {
			if e.A != int64(e.Counter) {
				t.Fatalf("torn event: counter %d, A %d", e.Counter, e.A)
			}
			if e.A <= last {
				t.Fatalf("events out of order: %d after %d", e.A, last)
			}
			last = e.A
		}
	}
}

// TestChromeExportSchema drains a small synthetic run and checks the export
// is valid Chrome trace_event JSON: an object with a traceEvents array whose
// entries all carry name/ph/pid/tid, wait begin/end pair up, and both the
// thread tracks and the phase track are named by metadata events.
func TestChromeExportSchema(t *testing.T) {
	r0 := NewRing("replay", 0, "0", DefaultCapacity)
	r1 := NewRing("replay", 1, "0.1", DefaultCapacity)
	r0.Record(Event{Kind: EvWaitBegin, Counter: 1, A: 5})
	r0.Record(Event{Kind: EvWaitEnd, Counter: 1, A: 5})
	r0.Record(Event{Kind: EvScheduleStep, Counter: 1, Loc: 3, A: 5})
	r1.Record(Event{Kind: EvBlindWrite, Counter: 9, Loc: 3})
	r1.Record(Event{Kind: EvDivergence, Counter: 10, Loc: 3})
	spans := []obs.Span{{Name: "solve", StartUnixNS: 1, DurNS: 1000, Items: 2}}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []RingSnap{r0.Snapshot(), r1.Snapshot()}, spans); err != nil {
		t.Fatal(err)
	}

	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	begins, ends := 0, 0
	sawPhase, sawThreadMeta := false, false
	for _, e := range parsed.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "X":
			if e["name"] == "solve" {
				sawPhase = true
			}
		case "M":
			if e["name"] == "thread_name" {
				sawThreadMeta = true
			}
		}
	}
	if begins != ends || begins != 1 {
		t.Errorf("wait B/E events unbalanced: %d begins, %d ends", begins, ends)
	}
	if !sawPhase {
		t.Error("phase span missing from export")
	}
	if !sawThreadMeta {
		t.Error("thread_name metadata missing from export")
	}
}
