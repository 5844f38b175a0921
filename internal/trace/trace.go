// Package trace defines the on-disk record produced by the Light recorder
// (and, in their own dialects, by the baseline recorders): flow dependences,
// non-interleaved access ranges, recorded system-call values, and the
// metadata needed to correlate accesses across runs. Threads are identified
// by their stable spawn path ("0", "0.1", "0.1.2", ...), interned into a
// per-log table.
package trace

import "repro/internal/vm"

// TC identifies one dynamic shared access: a thread (index into Log.Threads)
// plus the thread-local counter value D(t) of the access (Section 4.1).
type TC struct {
	Thread  int32
	Counter uint64
}

// InitialThread is the pseudo-thread of each location's initial value: a
// read whose dependence source is InitialThread reads the pre-run value.
const InitialThread int32 = -1

// IsInitial reports whether the TC denotes a location's initial value.
func (tc TC) IsInitial() bool { return tc.Thread == InitialThread }

// Dep is one recorded flow dependence W→R over location Loc (Def. 3.1).
type Dep struct {
	Loc int32
	W   TC // writer (InitialThread if the read saw the initial value)
	R   TC // reader
}

// Range is a non-interleaved same-thread access run over one location
// (Lemma 4.3, and the sound form of the Algorithm 1 prec optimization):
// accesses with counters in [Start, End] by Thread touched Loc with no
// intervening access from any other thread. HasWrite distinguishes mixed
// read/write runs (which must exclude all other accesses) from read-only
// runs (which must only exclude writes). W is the dependence source of the
// run's first access when that access is a read; a run starting with a write
// has no source, and the recorder leaves its W zero.
type Range struct {
	Loc            int32
	Thread         int32
	Start          uint64
	End            uint64
	W              TC
	HasWrite       bool
	StartsWithRead bool
}

// SyscallRec is one recorded nondeterministic builtin result.
type SyscallRec struct {
	Seq   uint64
	Value int64
}

// Bug captures the record run's failure for replay validation: a correct
// replay reproduces the same kind/value at the same statement in the same
// thread (the paper's Definition 3.3 correlation).
type Bug struct {
	Kind       int32
	ThreadPath string
	FuncID     int32
	PC         int32
	Value      string
	Msg        string
}

// BugsOf returns the bugs a run observed, the runtime errors its threads
// ended with, as log records; a nil result observed none.
func BugsOf(res *vm.Result) []Bug {
	if res == nil {
		return nil
	}
	var bugs []Bug
	for _, b := range res.Bugs {
		bugs = append(bugs, Bug{
			Kind: int32(b.Kind), ThreadPath: b.ThreadPath,
			FuncID: int32(b.FuncID), PC: int32(b.PC),
			Value: b.Value, Msg: b.Msg,
		})
	}
	return bugs
}

// Log is a complete recording of one run.
type Log struct {
	Tool    string
	Seed    uint64
	Threads []string // thread index -> spawn path
	Deps    []Dep
	Ranges  []Range
	// Syscalls maps thread index to that thread's recorded results in
	// sequence order.
	Syscalls map[int32][]SyscallRec
	// SpaceLongs is the recorder's space consumption in the paper's
	// Long-integer units (Section 5.2).
	SpaceLongs int64
	// Bugs are the failures observed during the record run, if any.
	Bugs []Bug
	// NumLocs is the number of distinct shared locations observed.
	NumLocs int32
}

// ThreadIndex returns the index of path in the thread table, or -1.
func (l *Log) ThreadIndex(path string) int32 {
	for i, p := range l.Threads {
		if p == path {
			return int32(i)
		}
	}
	return -1
}

// DepCount returns the number of recorded dependences.
func (l *Log) DepCount() int { return len(l.Deps) }

// Events returns the log's event count — dependences, ranges, and recorded
// syscall values — the denominator of the bench report's bytes-per-event
// metric.
func (l *Log) Events() int {
	n := len(l.Deps) + len(l.Ranges)
	for _, recs := range l.Syscalls {
		n += len(recs)
	}
	return n
}

// Space unit weights, in the paper's Long-integer accounting. A dependence
// stores the location, the packed writer TC and the reader counter; a range
// additionally stores its interval; a syscall stores one value.
const (
	LongsPerDep     = 3
	LongsPerRange   = 4
	LongsPerSyscall = 1
)
