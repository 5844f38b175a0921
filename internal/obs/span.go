package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed pipeline phase: a name from the fixed record →
// encode → build → propagate → solve → topo → replay vocabulary
// (free-form names are allowed), its wall-clock extent, and optional
// byte/item payload sizes. The schedule solve splits into build (counter
// index, items, hard edges, disjunction generation), propagate, solve
// (per-location construction) and topo (the final sort, which also checks the
// constructed choices); when that check fails, a second solve (one
// CDCL(T) search) and topo follow. A replay's first gate-table build is a
// gates span inside its replay span.
// Spans are collected only while tracing is enabled (EnableTracing); the
// flight recorder's Chrome trace export draws them on its pipeline track
// (lightrr -flight-trace).
type Span struct {
	// Name identifies the phase ("record", "encode", "build", "propagate",
	// "solve", "topo", "replay", ...).
	Name string `json:"name"`
	// StartUnixNS is the span's start in Unix nanoseconds.
	StartUnixNS int64 `json:"start_unix_ns"`
	// DurNS is the span's wall-clock duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Bytes is an optional payload size (e.g. encoded log bytes).
	Bytes int64 `json:"bytes,omitempty"`
	// Items is an optional element count (e.g. events encoded, constraint
	// components solved, accesses gated).
	Items int64 `json:"items,omitempty"`

	start time.Time
}

// tracingEnabled gates span collection independently of the metric switch.
var tracingEnabled atomic.Bool

// EnableTracing turns span collection on.
func EnableTracing() { tracingEnabled.Store(true) }

// DisableTracing turns span collection off (test support).
func DisableTracing() { tracingEnabled.Store(false) }

var (
	spanMu  sync.Mutex
	spanLog []Span
)

// StartSpan opens a span. It returns nil while tracing is disabled; all Span
// methods are nil-safe, so call sites need no guard.
func StartSpan(name string) *Span {
	if !tracingEnabled.Load() {
		return nil
	}
	now := time.Now()
	return &Span{Name: name, StartUnixNS: now.UnixNano(), start: now}
}

// SetBytes attaches a payload byte size to the span.
func (s *Span) SetBytes(n int64) {
	if s != nil {
		s.Bytes = n
	}
}

// SetItems attaches an element count to the span.
func (s *Span) SetItems(n int64) {
	if s != nil {
		s.Items = n
	}
}

// End closes the span and appends it to the process span log.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.DurNS = time.Since(s.start).Nanoseconds()
	spanMu.Lock()
	spanLog = append(spanLog, *s)
	spanMu.Unlock()
}

// Spans returns a snapshot of all completed spans in completion order.
func Spans() []Span {
	spanMu.Lock()
	defer spanMu.Unlock()
	return append([]Span(nil), spanLog...)
}

// ResetSpans clears the span log (test support).
func ResetSpans() {
	spanMu.Lock()
	spanLog = nil
	spanMu.Unlock()
}
