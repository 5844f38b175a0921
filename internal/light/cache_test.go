package light

import (
	"testing"

	"repro/internal/trace"
)

// TestScheduleCachePoisonedOrderRecomputed: a cached order that fails
// CheckSchedule — a corrupted order, or one valid for another log — is
// never served as a hit; it is dropped and the schedule recomputed.
func TestScheduleCachePoisonedOrderRecomputed(t *testing.T) {
	ResetScheduleCache()
	defer ResetScheduleCache()
	log := residualLog()
	good, _, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := ComputeScheduleCached(log); err != nil || !hit {
		t.Fatalf("clean re-solve: hit=%v err=%v, want a hit", hit, err)
	}

	// Reverse the cached order in place under the correct key.
	key := logScheduleKey(log)
	bad := make([]trace.TC, len(good.Order))
	for i, tc := range good.Order {
		bad[len(bad)-1-i] = tc
	}
	schedOrderCache.store(key, bad)

	sched, hit, err := ComputeScheduleCached(log)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("poisoned order served as a hit")
	}
	if err := CheckSchedule(log, sched); err != nil {
		t.Fatalf("recomputed schedule invalid: %v", err)
	}
	if d := DiffSchedules(good, sched); !d.Equal() {
		t.Fatalf("recomputed schedule differs from the clean solve: %s", d)
	}
	// And a foreign order (valid for some other log) is equally rejected.
	other := bridgedResidualLog()
	otherSched, err := ComputeSchedule(other)
	if err != nil {
		t.Fatal(err)
	}
	schedOrderCache.store(key, otherSched.Order)
	if _, hit, _ := ComputeScheduleCached(log); hit {
		t.Fatal("foreign order served as a hit")
	}
}
