package light

import (
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

// TestCheckerRejectsCorruption: the checker must fail on every class of
// schedule damage it claims to detect.
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
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a truncated schedule")
		}
	})
	t.Run("duplicate-entry", func(t *testing.T) {
		s := clone()
		s.Order[len(s.Order)-1] = s.Order[0]
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a duplicated entry")
		}
	})
	t.Run("foreign-entry", func(t *testing.T) {
		s := clone()
		s.Order[0] = trace.TC{Thread: 99, Counter: 99}
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a non-system variable")
		}
	})
	t.Run("stale-pos", func(t *testing.T) {
		s := clone()
		s.Order[0], s.Order[1] = s.Order[1], s.Order[0]
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted Pos inconsistent with Order")
		}
	})
	t.Run("hard-edge-violated", func(t *testing.T) {
		s := clone()
		// Reverse the whole order: program-order chains flip.
		for i, j := 0, len(s.Order)-1; i < j; i, j = i+1, j-1 {
			s.Order[i], s.Order[j] = s.Order[j], s.Order[i]
		}
		reindex(s)
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a reversed schedule")
		}
	})
	t.Run("range-end-missing", func(t *testing.T) {
		s := clone()
		for k := range s.RangeEnd {
			delete(s.RangeEnd, k)
			break
		}
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a schedule with a dropped range gate")
		}
	})
	t.Run("range-end-wrong", func(t *testing.T) {
		s := clone()
		for k := range s.RangeEnd {
			s.RangeEnd[k]++
			break
		}
		if CheckSchedule(log, s) == nil {
			t.Fatal("checker accepted a schedule with a shifted range gate")
		}
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
		if CheckSchedule(rl, s) == nil {
			t.Fatal("checker accepted interleaved write ranges")
		}
	})
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
