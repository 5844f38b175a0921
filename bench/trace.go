package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs/flight"
)

// span is one timed call into a layer: its name, interval, the span that
// caused it, and the group ID (iter-N, setup-N, session-N) every span of
// one pass shares.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int           // index into tracer.spans, -1 for a root
	group      string
}

// tracer times every layer call the benchmark makes. Timing is always on;
// with keep set it also holds each call as a span in memory, to be written
// as one Chrome trace when the run ends.
type tracer struct {
	keep     bool
	workload string
	origin   time.Time
	spans    []span
	stack    []int
	group    string // group of the spans begun next
}

// mark is an open span: its start, and its index when it is kept.
type mark struct {
	start time.Time
	idx   int
}

func newTracer(keep bool, workload string) *tracer {
	return &tracer{keep: keep, workload: workload, origin: time.Now()}
}

// begin opens a span nested under the innermost open one.
func (t *tracer) begin(name string) mark {
	m := mark{start: time.Now(), idx: -1}
	if t.keep {
		parent := -1
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1]
		}
		m.idx = len(t.spans)
		t.spans = append(t.spans, span{name: name, start: m.start.Sub(t.origin), parent: parent, group: t.group})
		t.stack = append(t.stack, m.idx)
	}
	return m
}

// end closes the span and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if m.idx >= 0 {
		t.spans[m.idx].end = now.Sub(t.origin)
		t.stack = t.stack[:len(t.stack)-1]
	}
	return now.Sub(m.start)
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: the benchmark calls layers
// one after another on one goroutine.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerRow summarizes every span of one name.
type layerRow struct {
	name                         string
	count                        int
	p50, p90, selfP50, selfTotMS float64 // ms
}

// layerTable groups spans by name, in order of first appearance.
func (t *tracer) layerTable() []layerRow {
	self := t.selfTimes()
	byName := map[string]*struct{ dur, self []float64 }{}
	var order []string
	for i, s := range t.spans {
		g, ok := byName[s.name]
		if !ok {
			g = &struct{ dur, self []float64 }{}
			byName[s.name] = g
			order = append(order, s.name)
		}
		g.dur = append(g.dur, ms(s.end-s.start))
		g.self = append(g.self, ms(self[i]))
	}
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		g := byName[name]
		r := layerRow{name: name, count: len(g.dur), p50: median(g.dur), p90: percentile(g.dur, 0.9), selfP50: median(g.self)}
		for _, v := range g.self {
			r.selfTotMS += v
		}
		rows = append(rows, r)
	}
	return rows
}

// printLayers writes the per-span-name table: count, p50/p90 of the
// duration, and p50 and total of the self time.
func (t *tracer) printLayers(w io.Writer) {
	rows := t.layerTable()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].selfTotMS > rows[j].selfTotMS })
	fmt.Fprintf(w, "%-26s %6s %10s %10s %10s %11s\n", "span", "count", "p50 ms", "p90 ms", "self p50", "self tot ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %6d %10.3f %10.3f %10.3f %11.1f\n", r.name, r.count, r.p50, r.p90, r.selfP50, r.selfTotMS)
	}
}

// writeChrome writes the kept spans as Chrome trace_event JSON (the
// repository's trace format; Perfetto and chrome://tracing open it). Each
// span becomes a complete ("X") slice on one track; its args carry the
// workload, the group ID and the parent span's name.
func (t *tracer) writeChrome(path string) error {
	tr := &flight.ChromeTrace{DisplayTimeUnit: "ms"}
	const pid, tid = 1, 1
	tr.Meta("process_name", pid, 0, "lightperf "+t.workload)
	tr.Meta("thread_name", pid, tid, "benchmark")
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		tr.TraceEvents = append(tr.TraceEvents, flight.ChromeEvent{
			Name: s.name, Phase: "X", PID: pid, TID: tid,
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"workload": t.workload, "group": s.group, "parent": parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
