package light

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/obs/flight"
	"repro/internal/trace"
)

// Forensics sizing: how much surrounding context a report captures.
const (
	// ForensicScheduleWindow is the number of schedule positions shown on
	// each side of the divergence turn.
	ForensicScheduleWindow = 8
	// ForensicEventsPerThread caps the flight events kept per thread in the
	// report (the newest ones — the events leading up to the divergence).
	ForensicEventsPerThread = 32
)

// ScheduleEntry is one gated access of the schedule window, resolved to its
// thread path for human consumption.
type ScheduleEntry struct {
	Pos        int    `json:"pos"`
	Thread     int32  `json:"thread"`
	ThreadPath string `json:"thread_path"`
	Counter    uint64 `json:"counter"`
	// Executed reports whether the replay had executed this position when
	// the divergence was flagged.
	Executed bool `json:"executed"`
}

// ConstraintRef names one constraint of the Section 4.2 system that the
// access under explanation participates in.
type ConstraintRef struct {
	// Kind is "program-order", "dependence", "non-interference", or
	// "write-exclusion".
	Kind string `json:"kind"`
	// Loc is the log location the constraint ranges over (-1 for the global
	// program-order chain).
	Loc int32 `json:"loc"`
	// Text is the constraint rendered as an ordering formula over TCs.
	Text string `json:"text"`
}

// AccessExplanation is everything the log and its constraint system say
// about one access: the dependences it anchors, the ranges containing it,
// and every generated constraint it participates in — the `lighttrace
// explain` payload and the constraint section of forensic reports.
type AccessExplanation struct {
	TC         trace.TC `json:"tc"`
	ThreadPath string   `json:"thread_path"`
	// Scheduled reports whether the access is a variable of the constraint
	// system (gated during replay); Pos is its schedule position when a
	// schedule was at hand, else -1.
	Scheduled bool `json:"scheduled"`
	Pos       int  `json:"pos"`
	// DepsAsReader lists recorded dependences whose reader is this access;
	// DepsAsWriter those whose source it is.
	DepsAsReader []trace.Dep `json:"deps_as_reader,omitempty"`
	DepsAsWriter []trace.Dep `json:"deps_as_writer,omitempty"`
	// Ranges lists the recorded ranges whose interval contains the access.
	Ranges []trace.Range `json:"ranges,omitempty"`
	// Constraints lists every generated constraint mentioning the access.
	Constraints []ConstraintRef `json:"constraints,omitempty"`
}

func fmtTC(tc trace.TC) string {
	if tc.IsInitial() {
		return "init"
	}
	return fmt.Sprintf("t%d#%d", tc.Thread, tc.Counter)
}

// ExplainAccess collects what the log says about one access and every
// Section 4.2 constraint it participates in: those of its own location
// (genLocConstraints), and program order to its thread's neighbouring
// scheduled accesses. sched may be nil; when given, it supplies the
// access's schedule position.
func ExplainAccess(log *trace.Log, tc trace.TC, sched *Schedule) *AccessExplanation {
	ex := &AccessExplanation{TC: tc, Pos: -1}
	if tc.Thread >= 0 && int(tc.Thread) < len(log.Threads) {
		ex.ThreadPath = log.Threads[tc.Thread]
	}
	for _, d := range log.Deps {
		if d.R == tc {
			ex.DepsAsReader = append(ex.DepsAsReader, d)
		}
		if d.W == tc {
			ex.DepsAsWriter = append(ex.DepsAsWriter, d)
		}
	}
	for _, rg := range log.Ranges {
		if rg.Thread == tc.Thread && rg.Start <= tc.Counter && tc.Counter <= rg.End {
			ex.Ranges = append(ex.Ranges, rg)
		}
		if rg.StartsWithRead && rg.W == tc {
			ex.DepsAsWriter = append(ex.DepsAsWriter, trace.Dep{
				Loc: rg.Loc, W: rg.W, R: trace.TC{Thread: rg.Thread, Counter: rg.Start},
			})
		}
	}
	if sched != nil {
		if p, ok := sched.Pos[tc]; ok {
			ex.Pos = p
		}
	}

	items := collectItems(log)
	x := newDenseIndex(items)
	i, ok := slices.BinarySearchFunc(x.vars, tc, func(a, b trace.TC) int {
		return cmp.Or(cmp.Compare(a.Thread, b.Thread), cmp.Compare(a.Counter, b.Counter))
	})
	if ex.Scheduled = ok; !ok {
		return ex
	}
	own := map[int32]*locItems{}
	for loc, li := range items {
		locVarSet(li, func(a trace.TC) {
			if a == tc {
				own[loc] = li
			}
		})
	}
	ds := newDenseSystem(own, x)
	for li, loc := range ds.locIDs {
		for _, e := range ds.locEdges(li) {
			if e[0] == tc || e[1] == tc {
				ex.Constraints = append(ex.Constraints, ConstraintRef{
					Kind: "dependence", Loc: loc,
					Text: fmt.Sprintf("%s < %s", fmtTC(e[0]), fmtTC(e[1])),
				})
			}
		}
		ds.genDisj(li, func(a1, b1, a2, b2 int32) {
			v := x.vars
			d := disjunction{a1: v[a1], b1: v[b1], a2: v[a2], b2: v[b2]}
			if d.a1 != tc && d.b1 != tc && d.a2 != tc && d.b2 != tc {
				return
			}
			kind := "non-interference"
			// Write-exclusion disjunctions pair two write-bearing
			// intervals symmetrically: (hi1 < lo2) or (hi2 < lo1).
			if d.a1.Thread == d.b2.Thread && d.a2.Thread == d.b1.Thread {
				kind = "write-exclusion"
			}
			ex.Constraints = append(ex.Constraints, ConstraintRef{
				Kind: kind, Loc: loc,
				Text: fmt.Sprintf("(%s < %s) or (%s < %s)",
					fmtTC(d.a1), fmtTC(d.b1), fmtTC(d.a2), fmtTC(d.b2)),
			})
		})
	}
	for _, e := range chainEdges(x.vars[max(i-1, 0):min(i+2, len(x.vars))]) {
		ex.Constraints = append(ex.Constraints, ConstraintRef{
			Kind: "program-order", Loc: -1,
			Text: fmt.Sprintf("%s < %s", fmtTC(e[0]), fmtTC(e[1])),
		})
	}
	return ex
}

// ForensicReport is the structured post-mortem of a diverged replay: the
// typed first divergence, the schedule window surrounding it, the last
// flight events of every thread, and the recorded constraints the diverging
// access participates in. lightrr -forensics writes it as JSON plus a
// human-readable text rendering.
type ForensicReport struct {
	Divergence *DivergenceError `json:"divergence"`
	// Window is the schedule slice around the divergence turn; Expected is
	// the gated access the schedule wanted next (nil when the schedule was
	// exhausted).
	Window   []ScheduleEntry `json:"window,omitempty"`
	Expected *ScheduleEntry  `json:"expected,omitempty"`
	// Threads holds each thread's trailing flight events (empty when flight
	// recording was off).
	Threads []flight.RingSnap `json:"threads,omitempty"`
	// Explanation is the constraint-system view of the diverging access.
	Explanation *AccessExplanation `json:"explanation,omitempty"`
}

// BuildForensics assembles the report for a diverged replay. snaps should be
// the replay-track flight snapshot (may be nil when flight recording is
// off); sched is the schedule the replay enforced.
func BuildForensics(sched *Schedule, div *DivergenceError, snaps []flight.RingSnap) *ForensicReport {
	if div == nil {
		return nil
	}
	rep := &ForensicReport{Divergence: div}
	log := sched.Log

	lo := div.Turn - ForensicScheduleWindow
	if lo < 0 {
		lo = 0
	}
	hi := div.Turn + ForensicScheduleWindow
	if hi > len(sched.Order) {
		hi = len(sched.Order)
	}
	for p := lo; p < hi; p++ {
		tc := sched.Order[p]
		e := ScheduleEntry{
			Pos: p, Thread: tc.Thread, Counter: tc.Counter,
			Executed: div.executedAt(p),
		}
		if int(tc.Thread) < len(log.Threads) {
			e.ThreadPath = log.Threads[tc.Thread]
		}
		rep.Window = append(rep.Window, e)
		if p == div.Turn {
			ee := e
			rep.Expected = &ee
		}
	}

	for _, s := range snaps {
		if n := len(s.Events); n > ForensicEventsPerThread {
			s.Dropped += uint64(n - ForensicEventsPerThread)
			s.Events = s.Events[n-ForensicEventsPerThread:]
		}
		rep.Threads = append(rep.Threads, s)
	}

	if div.Thread >= 0 {
		rep.Explanation = ExplainAccess(log, trace.TC{Thread: div.Thread, Counter: div.Counter}, sched)
	}
	return rep
}

// WriteJSON renders the report as indented JSON.
func (r *ForensicReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report for humans: the divergence headline, the
// expected-vs-observed schedule window, each thread's trailing events, and
// the constraints the diverging access participates in.
func (r *ForensicReport) WriteText(w io.Writer) error {
	d := r.Divergence
	fmt.Fprintf(w, "REPLAY DIVERGENCE [%s]\n", d.Kind)
	fmt.Fprintf(w, "  %s\n", d.Error())
	fmt.Fprintf(w, "  thread=%d (%s) counter=%d loc=%d turn=%d/%d\n\n",
		d.Thread, d.ThreadPath, d.Counter, d.Loc, d.Turn, d.ScheduleLen)

	if len(r.Window) > 0 {
		fmt.Fprintf(w, "schedule window (positions %d..%d):\n", r.Window[0].Pos, r.Window[len(r.Window)-1].Pos)
		for _, e := range r.Window {
			mark := " "
			if e.Executed {
				mark = "x"
			}
			cursor := "  "
			if r.Expected != nil && e.Pos == r.Expected.Pos {
				cursor = "=>"
			}
			fmt.Fprintf(w, "  %s [%s] pos %-5d thread %s access %d\n", cursor, mark, e.Pos, e.ThreadPath, e.Counter)
		}
		fmt.Fprintln(w)
	}

	for _, s := range r.Threads {
		if len(s.Events) == 0 {
			continue
		}
		fmt.Fprintf(w, "thread %s (track %s, %d dropped) last %d events:\n", s.Label, s.Track, s.Dropped, len(s.Events))
		for _, e := range s.Events {
			fmt.Fprintf(w, "  %-22s counter=%-6d loc=%-4d a=%d b=%d\n", e.Kind, e.Counter, e.Loc, e.A, e.B)
		}
		fmt.Fprintln(w)
	}

	if ex := r.Explanation; ex != nil {
		fmt.Fprintf(w, "constraints on %s (scheduled=%v pos=%d):\n", fmtTC(ex.TC), ex.Scheduled, ex.Pos)
		for _, d := range ex.DepsAsReader {
			fmt.Fprintf(w, "  reads-from   loc %-4d %s -> %s\n", d.Loc, fmtTC(d.W), fmtTC(d.R))
		}
		for _, d := range ex.DepsAsWriter {
			fmt.Fprintf(w, "  read-by      loc %-4d %s -> %s\n", d.Loc, fmtTC(d.W), fmtTC(d.R))
		}
		for _, rg := range ex.Ranges {
			fmt.Fprintf(w, "  in-range     loc %-4d [%d..%d] hasWrite=%v\n", rg.Loc, rg.Start, rg.End, rg.HasWrite)
		}
		for _, c := range ex.Constraints {
			fmt.Fprintf(w, "  %-16s loc %-4d %s\n", c.Kind, c.Loc, c.Text)
		}
	}
	return nil
}
