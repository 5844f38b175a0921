package light

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// replicatedResidualLog builds k disjoint, canonically identical residual
// components: location i carries free write-range exclusions between its
// own pair of threads, with identical counter structure everywhere.
func replicatedResidualLog(k int) *trace.Log {
	log := &trace.Log{NumLocs: int32(k)}
	for i := 0; i < k; i++ {
		a, b := int32(2*i), int32(2*i+1)
		log.Threads = append(log.Threads, "a", "b")
		log.Ranges = append(log.Ranges,
			trace.Range{Loc: int32(i), Thread: a, Start: 1, End: 2, HasWrite: true},
			trace.Range{Loc: int32(i), Thread: b, Start: 1, End: 2, HasWrite: true},
		)
	}
	return log
}

// TestCacheIntraSolveDedup: canonically identical components must hit the
// cache within a single solve — only the first instance pays for search.
func TestCacheIntraSolveDedup(t *testing.T) {
	const k = 4
	log := replicatedResidualLog(k)
	ResetScheduleCache()
	sched, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatal(err)
	}
	st := sched.Stats
	if st.CacheMisses != 1 || st.CacheHits != k-1 {
		t.Fatalf("cache misses/hits = %d/%d, want 1/%d (replicated components dedup)", st.CacheMisses, st.CacheHits, k-1)
	}
	if st.Components != k || st.FastpathComponents != 0 {
		t.Fatalf("components=%d fastpath=%d, want %d/0", st.Components, st.FastpathComponents, k)
	}
}

// TestCacheKeyDistinguishesStructure: components that differ only in chain
// layout or constraint shape must not collide.
func TestCacheKeyDistinguishesStructure(t *testing.T) {
	base := &residualComp{
		vars: []trace.TC{{Thread: 0, Counter: 1}, {Thread: 0, Counter: 2}, {Thread: 1, Counter: 1}, {Thread: 1, Counter: 2}},
		disj: []disjunction{{
			a1: trace.TC{Thread: 0, Counter: 2}, b1: trace.TC{Thread: 1, Counter: 1},
			a2: trace.TC{Thread: 1, Counter: 2}, b2: trace.TC{Thread: 0, Counter: 1},
		}},
	}
	k1, ok := residualCompKey(base)
	if !ok {
		t.Fatal("cache disabled")
	}

	// Same shape, different thread IDs/counters: canonical, must collide.
	renamed := &residualComp{
		vars: []trace.TC{{Thread: 5, Counter: 10}, {Thread: 5, Counter: 20}, {Thread: 9, Counter: 10}, {Thread: 9, Counter: 20}},
		disj: []disjunction{{
			a1: trace.TC{Thread: 5, Counter: 20}, b1: trace.TC{Thread: 9, Counter: 10},
			a2: trace.TC{Thread: 9, Counter: 20}, b2: trace.TC{Thread: 5, Counter: 10},
		}},
	}
	if k2, _ := residualCompKey(renamed); k2 != k1 {
		t.Error("canonically identical components got different keys")
	}

	// Different chain layout (all four vars on one thread): distinct key.
	oneThread := &residualComp{
		vars: []trace.TC{{Thread: 0, Counter: 1}, {Thread: 0, Counter: 2}, {Thread: 0, Counter: 3}, {Thread: 0, Counter: 4}},
		disj: []disjunction{{
			a1: trace.TC{Thread: 0, Counter: 2}, b1: trace.TC{Thread: 0, Counter: 3},
			a2: trace.TC{Thread: 0, Counter: 4}, b2: trace.TC{Thread: 0, Counter: 1},
		}},
	}
	if k3, _ := residualCompKey(oneThread); k3 == k1 {
		t.Error("different chain layouts collided")
	}

	// Extra bridge literal: distinct key.
	bridged := &residualComp{vars: base.vars, disj: base.disj,
		bridges: [][2]trace.TC{{base.vars[0], base.vars[2]}}}
	if k4, _ := residualCompKey(bridged); k4 == k1 {
		t.Error("bridge literals not part of the key")
	}
}

// TestCacheDisabled: with DefaultSolveCache off nothing is stored or
// counted, and schedules are unchanged.
func TestCacheDisabled(t *testing.T) {
	defer func() { DefaultSolveCache = true }()
	log := replicatedResidualLog(2)

	ResetScheduleCache()
	DefaultSolveCache = true
	cached, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}

	DefaultSolveCache = false
	ResetScheduleCache()
	plain, err := ComputeScheduleJobs(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.CacheHits != 0 || plain.Stats.CacheMisses != 0 {
		t.Fatalf("disabled cache counted %d hits / %d misses", plain.Stats.CacheHits, plain.Stats.CacheMisses)
	}
	if !reflect.DeepEqual(plain.Order, cached.Order) {
		t.Fatal("cache changed the schedule")
	}
}
