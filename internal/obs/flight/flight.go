// Package flight is the Light pipeline's flight recorder: a bounded,
// per-thread ring buffer of structured events that the recorder and the
// replayer append to on their hot paths when a run asks for flight
// recording (light.RunConfig.FlightCapacity). A run without rings costs
// callers a single nil-ring branch; a run with them costs one timestamp
// read and one slot's atomic stores per event — no locks, no allocation —
// because every ring has exactly one writer, the thread it belongs to.
//
// A ring holds the last capacity events of its thread; older events are
// overwritten, which is the point: when a replay diverges, the forensic
// report (light.ForensicReport) wants the events *leading up to* the
// divergence, not the whole run. A ring belongs to the run that creates it:
// the package keeps no state of its own, the run's outcome hands its rings'
// snapshots back, and WriteChrome renders snapshots as Chrome trace_event
// JSON, viewable in Perfetto or chrome://tracing with one track per thread
// plus one track per pipeline phase span.
package flight

import (
	"sync/atomic"
	"time"
)

// Kind classifies a flight-recorder event. The vocabulary mirrors the
// quantities of the paper's record and replay algorithms; DESIGN.md §7 maps
// each kind to the construct it traces.
type Kind uint8

// Event kinds.
const (
	// EvRead is one instrumented shared read (Algorithm 1's read path during
	// recording; a gated or range-interior read during replay).
	EvRead Kind = iota
	// EvWrite is one instrumented shared write.
	EvWrite
	// EvLockAcquire is a monitor acquisition (the ghost read+write pair the
	// VM emits on MonEnter, folded into one event).
	EvLockAcquire
	// EvLockRelease is a monitor release (the ghost write on MonExit).
	EvLockRelease
	// EvWaitBegin marks a replay thread blocking until the schedule entry
	// just before its access on the same location has executed; A carries
	// the access's schedule position, B the awaited position.
	EvWaitBegin
	// EvWaitEnd marks the blocked thread resuming; A and B as for
	// EvWaitBegin.
	EvWaitEnd
	// EvBlindWrite is a write the replayer suppressed as blind (Section 4.2).
	EvBlindWrite
	// EvRunBoundary is the recorder closing one non-interleaved access run
	// (Lemma 4.3); A carries the run's last counter, B its length.
	EvRunBoundary
	// EvScheduleStep is a gated access executing at its schedule position
	// (A carries the position).
	EvScheduleStep
	// EvDivergence marks the first detected replay divergence or stall.
	EvDivergence
)

// kindNames spells each kind for the Chrome export and the forensic text
// report.
var kindNames = [...]string{
	EvRead:         "read",
	EvWrite:        "write",
	EvLockAcquire:  "lock-acquire",
	EvLockRelease:  "lock-release",
	EvWaitBegin:    "gated-wait",
	EvWaitEnd:      "gated-wait-end",
	EvBlindWrite:   "blind-write-suppressed",
	EvRunBoundary:  "run-boundary",
	EvScheduleStep: "schedule-step",
	EvDivergence:   "DIVERGENCE",
}

// String returns the kind's export spelling.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured flight-recorder event. Loc, A, and B are
// kind-dependent payloads: Loc is a location identity (the recorder uses its
// internal location ID — the same ID the encoded log uses — while the
// replayer uses the VM location offset); A and B carry the packed last-write
// value, schedule position, run end, or wait target, per kind.
type Event struct {
	Kind    Kind   `json:"kind"`
	Counter uint64 `json:"counter"`
	Loc     int64  `json:"loc"`
	A       int64  `json:"a,omitempty"`
	B       int64  `json:"b,omitempty"`
	TimeNS  int64  `json:"time_ns"`
}

// KindName renders the event kind for JSON consumers (the numeric Kind stays
// compact; forensic reports want the spelling too).
func (e Event) KindName() string { return e.Kind.String() }

// DefaultCapacity is the per-thread ring size the front ends use when asked
// for flight recording without a size: enough to hold the recent history of
// a hot thread while keeping a 64-thread run at 14 MiB of event storage
// (56-byte slots).
const DefaultCapacity = 4096

// Ring is one thread's bounded event buffer. Exactly one goroutine — the
// owning thread — may call Record; Snapshot may run concurrently from any
// goroutine. Each slot is a seqlock: Record marks it odd while it stores
// the fields and then publishes the event's index in it, all with atomic
// stores, and head publishes the total event count after the slot. A
// snapshot keeps a slot only when it reads the same published index before
// and after the fields, so it never returns a torn event: an event
// overwritten during the snapshot is left out and counted as dropped.
type Ring struct {
	track  string
	thread int32
	label  string

	head atomic.Uint64
	buf  []slot
}

// slot is one ring entry. seq is 2i+1 while event i is being stored and
// 2i+2 once it is whole.
type slot struct {
	seq               atomic.Uint64
	kind              atomic.Uint32
	counter           atomic.Uint64
	loc, a, b, timeNS atomic.Int64
}

// NewRing creates a ring of capacity events (capacity > 0) for one thread.
// track groups rings into Chrome export processes ("record", "replay");
// thread is the log thread index (-1 when unknown); label is the thread's
// spawn path.
func NewRing(track string, thread int32, label string, capacity int) *Ring {
	return &Ring{track: track, thread: thread, label: label, buf: make([]slot, capacity)}
}

// Record appends one event, overwriting the oldest when the ring is full,
// and stamps it with the current wall clock. Single-writer; see Ring.
func (r *Ring) Record(e Event) {
	h := r.head.Load()
	s := &r.buf[h%uint64(len(r.buf))]
	s.seq.Store(2*h + 1)
	s.kind.Store(uint32(e.Kind))
	s.counter.Store(e.Counter)
	s.loc.Store(e.Loc)
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.timeNS.Store(time.Now().UnixNano())
	s.seq.Store(2*h + 2)
	r.head.Store(h + 1)
}

// Snapshot copies the ring's events oldest-first.
func (r *Ring) Snapshot() RingSnap {
	h := r.head.Load()
	n := uint64(len(r.buf))
	first := uint64(0)
	if h > n {
		first = h - n
	}
	s := RingSnap{Track: r.track, Thread: r.thread, Label: r.label}
	if h > first {
		s.Events = make([]Event, 0, h-first)
	}
	for i := first; i < h; i++ {
		sl := &r.buf[i%n]
		if sl.seq.Load() != 2*i+2 {
			continue // already overwritten
		}
		e := Event{
			Kind:    Kind(sl.kind.Load()),
			Counter: sl.counter.Load(),
			Loc:     sl.loc.Load(),
			A:       sl.a.Load(),
			B:       sl.b.Load(),
			TimeNS:  sl.timeNS.Load(),
		}
		if sl.seq.Load() == 2*i+2 {
			s.Events = append(s.Events, e)
		}
	}
	s.Dropped = h - uint64(len(s.Events))
	return s
}

// RingSnap is one ring's drained contents: its identity, the events oldest
// to newest, and how many older events the bound already evicted.
type RingSnap struct {
	Track   string  `json:"track"`
	Thread  int32   `json:"thread"`
	Label   string  `json:"label"`
	Dropped uint64  `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}
