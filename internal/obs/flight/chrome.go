package flight

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/obs"
)

// ChromeEvent is one entry of the Chrome trace_event JSON array — the subset
// of the format Perfetto and chrome://tracing consume: instant events
// (ph "i"), duration events (ph "X" with dur, or "B"/"E" pairs), flow arrows
// (ph "s"/"f"), and the "M" metadata events that name processes and threads.
// Timestamps are microseconds.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int64          `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of the trace_event format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// Write renders the trace as indented JSON.
func (t *ChromeTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// Meta appends a process_name or thread_name metadata event.
func (t *ChromeTrace) Meta(kind string, pid, tid int64, name string) {
	t.TraceEvents = append(t.TraceEvents, ChromeEvent{
		Name: kind, Phase: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name},
	})
}

// Chrome export process IDs: one per flight track, one for the pipeline
// phase spans.
const (
	// PIDRecord is the Chrome process holding the record run's threads.
	PIDRecord int64 = 1
	// PIDReplay is the Chrome process holding the replay run's threads.
	PIDReplay int64 = 2
	// PIDPhases is the Chrome process holding the pipeline phase spans
	// (record → encode → build → propagate → solve → topo → replay).
	PIDPhases int64 = 10
)

func trackPID(track string) int64 {
	switch track {
	case "record":
		return PIDRecord
	case "replay":
		return PIDReplay
	}
	return PIDPhases + 1
}

// BuildChrome converts drained flight rings plus completed obs phase spans
// into one Chrome trace: a process per track with a track per thread, wait
// intervals as B/E pairs, every other event kind as a thread-scoped instant,
// and a "pipeline" process carrying the phase spans as X slices.
func BuildChrome(snaps []RingSnap, spans []obs.Span) *ChromeTrace {
	t := &ChromeTrace{DisplayTimeUnit: "ms"}

	// The common time base: the earliest timestamp across events and spans.
	base := int64(0)
	for _, s := range snaps {
		for _, e := range s.Events {
			if base == 0 || (e.TimeNS > 0 && e.TimeNS < base) {
				base = e.TimeNS
			}
		}
	}
	for _, sp := range spans {
		if base == 0 || (sp.StartUnixNS > 0 && sp.StartUnixNS < base) {
			base = sp.StartUnixNS
		}
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	tracks := map[string]bool{}
	for _, s := range snaps {
		pid := trackPID(s.Track)
		if !tracks[s.Track] {
			tracks[s.Track] = true
			t.Meta("process_name", pid, 0, s.Track)
		}
		tid := int64(s.Thread)
		if tid < 0 {
			tid = 1 << 20 // diverged/unknown threads share a visible overflow track
		}
		name := s.Label
		if name == "" {
			name = "?"
		}
		t.Meta("thread_name", pid, tid, "thread "+name)
		for _, e := range s.Events {
			ce := ChromeEvent{
				Name: e.Kind.String(), TS: us(e.TimeNS), PID: pid, TID: tid,
				Args: map[string]any{"counter": e.Counter, "loc": e.Loc},
			}
			if e.A != 0 {
				ce.Args["a"] = e.A
			}
			if e.B != 0 {
				ce.Args["b"] = e.B
			}
			switch e.Kind {
			case EvWaitBegin:
				ce.Phase, ce.Name = "B", EvWaitBegin.String()
			case EvWaitEnd:
				ce.Phase, ce.Name = "E", EvWaitBegin.String()
			case EvDivergence:
				ce.Phase, ce.Scope = "i", "g"
			default:
				ce.Phase, ce.Scope = "i", "t"
			}
			t.TraceEvents = append(t.TraceEvents, ce)
		}
	}

	if len(spans) > 0 {
		t.Meta("process_name", PIDPhases, 0, "pipeline")
		t.Meta("thread_name", PIDPhases, 0, "phases")
		for _, sp := range spans {
			args := map[string]any{}
			if sp.Bytes > 0 {
				args["bytes"] = sp.Bytes
			}
			if sp.Items > 0 {
				args["items"] = sp.Items
			}
			t.TraceEvents = append(t.TraceEvents, ChromeEvent{
				Name: sp.Name, Phase: "X",
				TS: us(sp.StartUnixNS), Dur: float64(sp.DurNS) / 1e3,
				PID: PIDPhases, TID: 0, Args: args,
			})
		}
	}

	// Stable order: by timestamp, metadata first, for reproducible output.
	sort.SliceStable(t.TraceEvents, func(i, j int) bool {
		a, b := t.TraceEvents[i], t.TraceEvents[j]
		if (a.Phase == "M") != (b.Phase == "M") {
			return a.Phase == "M"
		}
		return a.TS < b.TS
	})
	return t
}

// WriteChrome renders drained rings plus phase spans as Chrome trace_event
// JSON — the backend of lightrr's -flight-trace flag.
func WriteChrome(w io.Writer, snaps []RingSnap, spans []obs.Span) error {
	return BuildChrome(snaps, spans).Write(w)
}
