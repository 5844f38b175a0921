package light

import (
	"fmt"
	"io"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// BuildScheduleChrome renders a computed schedule as a Chrome trace without
// needing a live run: the schedule position is the time axis (one
// microsecond per gated access), each log thread gets a track, every gated
// access is an instant event, every recorded range a slice spanning its
// gated endpoints, and every recorded dependence a flow arrow from its
// write to its read. The result loads in Perfetto / chrome://tracing next
// to (or instead of) a flight-recorder export.
func BuildScheduleChrome(sched *Schedule) *flight.ChromeTrace {
	log := sched.Log
	t := &flight.ChromeTrace{DisplayTimeUnit: "ms"}
	t.Meta("process_name", flight.PIDReplay, 0, "schedule")
	for i, path := range log.Threads {
		t.Meta("thread_name", flight.PIDReplay, int64(i), "thread "+path)
	}

	for pos, tc := range sched.Order {
		t.TraceEvents = append(t.TraceEvents, flight.ChromeEvent{
			Name: fmt.Sprintf("#%d", tc.Counter), Phase: "i", Scope: "t",
			TS: float64(pos), PID: flight.PIDReplay, TID: int64(tc.Thread),
			Args: map[string]any{"pos": pos, "counter": tc.Counter},
		})
	}

	for _, rg := range log.Ranges {
		start, ok1 := sched.position(trace.TC{Thread: rg.Thread, Counter: rg.Start})
		end, ok2 := sched.position(trace.TC{Thread: rg.Thread, Counter: rg.End})
		if !ok1 || !ok2 {
			continue
		}
		name := "range"
		if rg.HasWrite {
			name = "range+w"
		}
		t.TraceEvents = append(t.TraceEvents, flight.ChromeEvent{
			Name: name, Phase: "X",
			TS: float64(start), Dur: float64(end - start),
			PID: flight.PIDReplay, TID: int64(rg.Thread),
			Args: map[string]any{"loc": rg.Loc, "start": rg.Start, "end": rg.End},
		})
	}

	// Dependences as flow arrows W → R; initial-value reads have no source
	// event to anchor and are skipped.
	id := int64(0)
	for _, d := range log.Deps {
		if d.W.IsInitial() {
			continue
		}
		wp, ok1 := sched.position(d.W)
		rp, ok2 := sched.position(d.R)
		if !ok1 || !ok2 {
			continue
		}
		id++
		t.TraceEvents = append(t.TraceEvents, flight.ChromeEvent{
			Name: "dep", Phase: "s", TS: float64(wp),
			PID: flight.PIDReplay, TID: int64(d.W.Thread), ID: id,
		}, flight.ChromeEvent{
			Name: "dep", Phase: "f", BP: "e", TS: float64(rp),
			PID: flight.PIDReplay, TID: int64(d.R.Thread), ID: id,
		})
	}
	return t
}

// ExportScheduleChrome writes BuildScheduleChrome's trace — the backend of
// `lighttrace export`.
func ExportScheduleChrome(w io.Writer, sched *Schedule) error {
	return BuildScheduleChrome(sched).Write(w)
}

// ScheduleDiff localizes the first difference between two schedules'
// orders. FirstDiff == -1 means the orders are identical; range ends come
// from the logs, which trace.DiffLogs compares.
type ScheduleDiff struct {
	LenA int `json:"len_a"`
	LenB int `json:"len_b"`
	// FirstDiff is the first position whose entries differ (or the shorter
	// length when one order is a prefix of the other); -1 when equal.
	FirstDiff int `json:"first_diff"`
	// A and B are the differing entries; the zero TC when past one end.
	A trace.TC `json:"a"`
	B trace.TC `json:"b"`
}

// Equal reports whether no difference was found.
func (d *ScheduleDiff) Equal() bool { return d.FirstDiff < 0 }

// String renders the localization for error messages.
func (d *ScheduleDiff) String() string {
	if d.Equal() {
		return "schedules identical"
	}
	if d.LenA != d.LenB && (d.FirstDiff >= d.LenA || d.FirstDiff >= d.LenB) {
		return fmt.Sprintf("schedules diverge at position %d: %d entries vs %d", d.FirstDiff, d.LenA, d.LenB)
	}
	return fmt.Sprintf("schedules diverge at position %d: %s vs %s", d.FirstDiff, fmtTC(d.A), fmtTC(d.B))
}

// DiffSchedules compares two schedules' orders and localizes the first
// difference — the comparison `lighttrace diff` makes.
func DiffSchedules(a, b *Schedule) *ScheduleDiff {
	d := &ScheduleDiff{LenA: len(a.Order), LenB: len(b.Order), FirstDiff: -1}
	n := d.LenA
	if d.LenB < n {
		n = d.LenB
	}
	for i := 0; i < n; i++ {
		if a.Order[i] != b.Order[i] {
			d.FirstDiff, d.A, d.B = i, a.Order[i], b.Order[i]
			return d
		}
	}
	if d.LenA != d.LenB {
		d.FirstDiff = n
		if d.LenA > n {
			d.A = a.Order[n]
		}
		if d.LenB > n {
			d.B = b.Order[n]
		}
	}
	return d
}
