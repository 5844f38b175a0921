package light

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// checkBatch solves the log with 4 workers, runs the standalone checker on
// the schedule, and returns its stats for sweep-level aggregation. The
// checker is the independent judge: the schedule must be a model of the
// constraint system it rebuilds from the log.
func checkBatch(t *testing.T, log *trace.Log) ScheduleStats {
	t.Helper()
	batch, err := ComputeScheduleJobs(log, 4)
	if err != nil {
		t.Fatalf("batch solve: %v", err)
	}
	if err := CheckSchedule(log, batch); err != nil {
		t.Fatalf("batch schedule rejected by checker: %v", err)
	}
	return batch.Stats
}

// TestCheckerDifferentialWorkloads checks the schedule of every workload
// in the sweep and aggregates the fastpath-component rate, which must stay
// ≥ 0.8.
func TestCheckerDifferentialWorkloads(t *testing.T) {
	all := workloads.All()
	if testing.Short() {
		all = all[:6]
	}
	var fastpath, components int
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rec := Record(prog, Options{O1: true}, RunConfig{Seed: 11})
			st := checkBatch(t, rec.Log)
			fastpath += st.FastpathComponents
			components += st.Components
		})
	}
	if components == 0 {
		t.Fatal("sweep produced no components")
	}
	rate := float64(fastpath) / float64(components)
	t.Logf("sweep fastpath rate: %d/%d = %.3f", fastpath, components, rate)
	if rate < 0.8 {
		t.Fatalf("fastpath decided %.1f%% of components, acceptance floor is 80%%", 100*rate)
	}
}

// TestCheckerDifferentialBugs runs the same differential check across the
// eight bug repros.
func TestCheckerDifferentialBugs(t *testing.T) {
	for _, b := range bugs.All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			prog, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			rec := Record(prog, Options{O1: true}, RunConfig{Seed: 7})
			checkBatch(t, rec.Log)
		})
	}
}

// TestCheckerDifferentialSynthetic covers the log shapes real workloads
// never produce: pure residual components, and bridged residuals whose
// merge soundness depends on the seeded bridge literals.
func TestCheckerDifferentialSynthetic(t *testing.T) {
	for _, c := range []struct {
		name string
		log  *trace.Log
	}{
		{"residual", residualLog()},
		{"bridged", bridgedResidualLog()},
		{"replicated", replicatedResidualLog(4)},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ResetScheduleCache()
			checkBatch(t, c.log)
		})
	}
}

// rejectedByBoth fails the test unless both CheckSchedule and the rule
// reference (checkRules) reject the schedule; want, when non-empty, must
// appear in CheckSchedule's error, naming the rule that broke.
func rejectedByBoth(t *testing.T, log *trace.Log, s *Schedule, want string) {
	t.Helper()
	err := CheckSchedule(log, s)
	if err == nil {
		t.Fatal("CheckSchedule accepted the corrupted schedule")
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckSchedule: %v; want an error mentioning %q", err, want)
	}
	if checkRules(log, s) == nil {
		t.Fatal("rule reference accepted the corrupted schedule")
	}
}

// TestCheckerRejectsCorruption: the checker must fail on every class of
// schedule damage it claims to detect, and so must the rule reference.
func TestCheckerRejectsCorruption(t *testing.T) {
	log := bridgedResidualLog()
	good, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}

	clone := func() *Schedule {
		s := &Schedule{
			Order:    append([]trace.TC(nil), good.Order...),
			Pos:      make(map[trace.TC]int, len(good.Pos)),
			RangeEnd: make(map[trace.TC]uint64, len(good.RangeEnd)),
			Stats:    good.Stats,
		}
		for k, v := range good.Pos {
			s.Pos[k] = v
		}
		for k, v := range good.RangeEnd {
			s.RangeEnd[k] = v
		}
		return s
	}
	reindex := func(s *Schedule) {
		for i, tc := range s.Order {
			s.Pos[tc] = i
		}
	}

	t.Run("truncated", func(t *testing.T) {
		s := clone()
		s.Order = s.Order[:len(s.Order)-1]
		rejectedByBoth(t, log, s, "")
	})
	t.Run("duplicate-entry", func(t *testing.T) {
		s := clone()
		s.Order[len(s.Order)-1] = s.Order[0]
		rejectedByBoth(t, log, s, "")
	})
	t.Run("foreign-entry", func(t *testing.T) {
		s := clone()
		s.Order[0] = trace.TC{Thread: 99, Counter: 99}
		rejectedByBoth(t, log, s, "")
	})
	t.Run("unscheduled-entry", func(t *testing.T) {
		// An access of a logged thread that no log item names, after that
		// thread's last entry so program order still holds.
		s := clone()
		extra := trace.TC{Thread: 0, Counter: 1000}
		s.Order = append(s.Order, extra)
		s.Pos[extra] = len(s.Order) - 1
		rejectedByBoth(t, log, s, "not a scheduled access")
	})
	t.Run("stale-pos", func(t *testing.T) {
		s := clone()
		s.Order[0], s.Order[1] = s.Order[1], s.Order[0]
		rejectedByBoth(t, log, s, "Pos")
	})
	t.Run("hard-edge-violated", func(t *testing.T) {
		s := clone()
		// Reverse the whole order: program-order chains flip.
		for i, j := 0, len(s.Order)-1; i < j; i, j = i+1, j-1 {
			s.Order[i], s.Order[j] = s.Order[j], s.Order[i]
		}
		reindex(s)
		rejectedByBoth(t, log, s, "")
	})
	t.Run("range-end-missing", func(t *testing.T) {
		s := clone()
		for k := range s.RangeEnd {
			delete(s.RangeEnd, k)
			break
		}
		rejectedByBoth(t, log, s, "RangeEnd")
	})
	t.Run("range-end-wrong", func(t *testing.T) {
		s := clone()
		for k := range s.RangeEnd {
			s.RangeEnd[k]++
			break
		}
		rejectedByBoth(t, log, s, "RangeEnd")
	})
	t.Run("disjunction-violated", func(t *testing.T) {
		// A residual log whose only constraints are disjunctions: order the
		// write ranges so the t0/t1 exclusion fails in both disjuncts by
		// interleaving their ranges.
		rl := residualLog()
		s, err := ComputeScheduleJobs(rl, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave: t0:1 t1:1 t0:2 t1:2 ... regardless of what the solver
		// picked, this violates the write-range mutual exclusion.
		order := []trace.TC{
			{Thread: 0, Counter: 1}, {Thread: 1, Counter: 1},
			{Thread: 0, Counter: 2}, {Thread: 1, Counter: 2},
			{Thread: 2, Counter: 1}, {Thread: 2, Counter: 2},
		}
		if len(order) != len(s.Order) {
			t.Fatalf("system has %d vars, expected 6", len(s.Order))
		}
		s.Order = order
		for i, tc := range order {
			s.Pos[tc] = i
		}
		rejectedByBoth(t, rl, s, "interrupts")
	})

	// One case per replay rule, each on a hand-built log whose good order
	// both checkers accept and whose bad order breaks that rule alone.
	tc := func(th int32, c uint64) trace.TC { return trace.TC{Thread: th, Counter: c} }
	dep := func(loc int32, w, r trace.TC) trace.Dep { return trace.Dep{Loc: loc, W: w, R: r} }
	initial := trace.TC{Thread: trace.InitialThread}
	for _, c := range []struct {
		name      string
		deps      []trace.Dep
		ranges    []trace.Range
		good, bad []trace.TC
		want      string
	}{
		{
			name: "read-before-source",
			deps: []trace.Dep{dep(0, tc(0, 1), tc(1, 1))},
			good: []trace.TC{tc(0, 1), tc(1, 1)},
			bad:  []trace.TC{tc(1, 1), tc(0, 1)},
			want: "before its source",
		},
		{
			name: "foreign-write-between",
			deps: []trace.Dep{dep(0, tc(0, 1), tc(1, 1)), dep(0, tc(2, 1), tc(3, 1))},
			good: []trace.TC{tc(0, 1), tc(1, 1), tc(2, 1), tc(3, 1)},
			bad:  []trace.TC{tc(0, 1), tc(2, 1), tc(1, 1), tc(3, 1)},
			want: "does not see its source",
		},
		{
			name:   "singleton-in-range",
			deps:   []trace.Dep{dep(0, tc(1, 1), tc(2, 1))},
			ranges: []trace.Range{{Loc: 0, Thread: 0, Start: 1, End: 3, W: tc(0, 1), HasWrite: true}},
			good:   []trace.TC{tc(0, 1), tc(0, 3), tc(1, 1), tc(2, 1)},
			bad:    []trace.TC{tc(0, 1), tc(1, 1), tc(0, 3), tc(2, 1)},
			want:   "interrupts",
		},
		{
			name: "initial-read-after-write",
			deps: []trace.Dep{dep(0, initial, tc(1, 1)), dep(0, tc(0, 1), tc(2, 1))},
			good: []trace.TC{tc(1, 1), tc(0, 1), tc(2, 1)},
			bad:  []trace.TC{tc(0, 1), tc(1, 1), tc(2, 1)},
			want: "initial-value read",
		},
		{
			name: "program-order-swap",
			deps: []trace.Dep{dep(0, tc(0, 1), tc(1, 1)), dep(1, tc(0, 2), tc(1, 2))},
			good: []trace.TC{tc(0, 1), tc(0, 2), tc(1, 1), tc(1, 2)},
			bad:  []trace.TC{tc(0, 2), tc(0, 1), tc(1, 1), tc(1, 2)},
			want: "program order",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := &trace.Log{Threads: []string{"t0", "t1", "t2", "t3"}, NumLocs: 2, Deps: c.deps, Ranges: c.ranges}
			good := newSchedule(l, c.good, ScheduleStats{})
			if err := CheckSchedule(l, good); err != nil {
				t.Fatalf("CheckSchedule rejected the good order: %v", err)
			}
			if err := checkRules(l, good); err != nil {
				t.Fatalf("rule reference rejected the good order: %v", err)
			}
			rejectedByBoth(t, l, newSchedule(l, c.bad, ScheduleStats{}), c.want)
		})
	}
}

// diffCheckers solves a log, requires both CheckSchedule and the rule
// reference to accept the schedule, then applies mutants seeded mutations
// (swaps of adjacent entries, swaps of any two entries, and moves of one
// entry that keep program order, each with Pos reindexed) and requires the
// two checkers to agree on every one. It returns how many mutations both
// rejected.
func diffCheckers(log *trace.Log, seed int64, mutants int) (rejected int, err error) {
	sched, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		return 0, err
	}
	if err := CheckSchedule(log, sched); err != nil {
		return 0, fmt.Errorf("CheckSchedule rejects the solved schedule: %v", err)
	}
	if err := checkRules(log, sched); err != nil {
		return 0, fmt.Errorf("rule reference rejects the solved schedule: %v", err)
	}
	n := len(sched.Order)
	if n < 2 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	for m := 0; m < mutants; m++ {
		order := append([]trace.TC(nil), sched.Order...)
		i := rng.Intn(n)
		switch m % 3 {
		case 0: // swap with the next entry
			if i == n-1 {
				i--
			}
			order[i], order[i+1] = order[i+1], order[i]
		case 1: // swap two entries
			j := rng.Intn(n)
			order[i], order[j] = order[j], order[i]
		case 2: // move one entry, keeping its thread's program order
			lo, hi := i-1, i+1
			for lo >= 0 && order[lo].Thread != order[i].Thread {
				lo--
			}
			for hi < n && order[hi].Thread != order[i].Thread {
				hi++
			}
			e := order[i]
			order = slices.Insert(slices.Delete(order, i, i+1), lo+1+rng.Intn(hi-1-lo), e)
		}
		mut := newSchedule(log, order, sched.Stats)
		got, want := CheckSchedule(log, mut), checkRules(log, mut)
		if (got == nil) != (want == nil) {
			return rejected, fmt.Errorf("mutation %d: CheckSchedule says %v, rule reference says %v", m, got, want)
		}
		if got != nil {
			rejected++
		}
	}
	return rejected, nil
}

// TestComponentCountRegression pins the engine's component counts on the
// committed recordings of embarrassingly parallel workloads: choice-free
// location clusters must stay separate even where thread timelines glue
// them into one cluster-graph SCC. The pins fail hard if the merge rule
// regresses to over-coarse (a timeline-SCC collapse solves jgf-crypt as
// one component).
func TestComponentCountRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep")
	}
	for _, c := range []struct {
		name       string
		components int
	}{
		{"jgf-crypt", 2085},
		{"jgf-sor", 1044},
		{"jgf-series", 20},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			log := loadGoldenLog(t, goldenSource{name: c.name})
			sched, err := ComputeScheduleJobs(log, 4)
			if err != nil {
				t.Fatal(err)
			}
			st := sched.Stats
			if st.Components != c.components || st.FastpathComponents != c.components {
				t.Fatalf("%d components (%d fastpath), want %d, all fastpath",
					st.Components, st.FastpathComponents, c.components)
			}
			if err := CheckSchedule(log, sched); err != nil {
				t.Fatal(err)
			}
		})
	}
}
