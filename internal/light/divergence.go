package light

import "fmt"

// DivergenceKind classifies how a replay left the recorded behavior.
type DivergenceKind int

// Divergence kinds, one per replayer detection site.
const (
	// DivUnscheduledRead: a read executed outside every scheduled access and
	// every open range window — the replay is consuming values the recording
	// never justified.
	DivUnscheduledRead DivergenceKind = iota
	// DivStall: the schedule cannot finish. Every live thread is blocked at
	// its gate on a pending position or in a join on a live thread, or no
	// thread is left while positions are pending (an infeasible or corrupted
	// schedule, or the wrong program). Detected exactly, with no timeout.
	DivStall
	// DivUnknownThread: the replay spawned a thread the record run never
	// created.
	DivUnknownThread
)

var divKindNames = map[DivergenceKind]string{
	DivUnscheduledRead: "unscheduled-read",
	DivStall:           "stall",
	DivUnknownThread:   "unknown-thread",
}

// String returns the kind's report spelling.
func (k DivergenceKind) String() string {
	if n, ok := divKindNames[k]; ok {
		return n
	}
	return "unknown"
}

// MarshalText renders the kind symbolically in JSON forensic reports.
func (k DivergenceKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the report spelling back (forensic-report round trip).
func (k *DivergenceKind) UnmarshalText(b []byte) error {
	for kk, n := range divKindNames {
		if n == string(b) {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("light: unknown divergence kind %q", b)
}

// DivergenceError is the typed first-divergence record of a failed replay:
// which thread, at which access counter, on which location, violated the
// schedule, and where the schedule stood when it happened. It replaces the
// replayer's former free-form failure strings so callers and tests assert on
// fields instead of substring-matching.
type DivergenceError struct {
	// Kind is the detection site that fired.
	Kind DivergenceKind `json:"kind"`
	// ThreadPath is the diverging thread's spawn path ("0.1", ...).
	ThreadPath string `json:"thread_path"`
	// Thread is the thread's index in the log's thread table, -1 when the
	// thread does not exist in the log (DivUnknownThread).
	Thread int32 `json:"thread"`
	// Counter is the thread-local access counter D(t) of the diverging
	// access (for DivStall: of the access the schedule was waiting for).
	Counter uint64 `json:"counter"`
	// Loc is the VM location offset of the diverging access (field ID, array
	// index, global ID, or ghost offset), -1 when no access is at hand.
	Loc int64 `json:"loc"`
	// Pos is the schedule position involved (the awaited position for
	// DivStall), -1 when the access has no position (it was unscheduled).
	Pos int `json:"pos"`
	// Turn is the executed prefix when the divergence was flagged — the
	// first schedule position not yet executed, and the expected-vs-observed
	// anchor of the forensic report.
	Turn int `json:"turn"`
	// ScheduleLen is the total number of gated accesses in the schedule.
	ScheduleLen int `json:"schedule_len"`

	// executed snapshots, when the replayer flagged the divergence, which
	// positions of the forensic window from executedFrom on had executed.
	// Positions past Turn can have: each location keeps its own order.
	executed     []bool
	executedFrom int
}

// executedAt reports whether position p had executed when the divergence
// was flagged; without a snapshot, exactly the prefix before Turn had.
func (e *DivergenceError) executedAt(p int) bool {
	if i := p - e.executedFrom; e.executed != nil && i >= 0 && i < len(e.executed) {
		return e.executed[i]
	}
	return p < e.Turn
}

// Error renders the divergence. The wording deliberately keeps the historic
// "divergence"/"stalled" vocabulary that logs and scripts already grep for.
func (e *DivergenceError) Error() string {
	switch e.Kind {
	case DivStall:
		return fmt.Sprintf("schedule stalled at position %d/%d: waiting for thread %s access %d",
			e.Pos, e.ScheduleLen, e.ThreadPath, e.Counter)
	case DivUnknownThread:
		return fmt.Sprintf("replay spawned thread %s that the record run never created (divergence at turn %d)",
			e.ThreadPath, e.Turn)
	default:
		return fmt.Sprintf("unscheduled read outside any range (divergence): thread %s counter %d loc off %d at turn %d/%d",
			e.ThreadPath, e.Counter, e.Loc, e.Turn, e.ScheduleLen)
	}
}
