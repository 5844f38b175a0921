package epoch

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/light"
	"repro/internal/trace"
)

// sealEightRuns records an 8-run epoch of contendedSrc and loads it.
func sealEightRuns(t *testing.T) *SegmentData {
	t.Helper()
	s, _ := openStore(t, t.TempDir(), -1)
	sess, err := StartSession(s, SessionConfig{Source: contendedSrc, SeedBase: 3, EpochRuns: 8, MaxRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess.Wait()
	newest, err := s.Newest()
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Load(newest.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Runs) != 8 {
		t.Fatalf("sealed %d runs, want 8", len(data.Runs))
	}
	return data
}

// withProcs runs f with GOMAXPROCS set to n.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// untimed zeroes a verdict's wall times, the only fields that differ
// between two replays of one run.
func untimed(rv RunVerdict) RunVerdict {
	rv.SolveMS, rv.ReplayMS = 0, 0
	return rv
}

// checkGoroutines fails if a run is still being verified after
// ReplayEpoch returned, or if the goroutine count does not come back to
// base. A goroutine that has signalled its end may not have exited yet, so
// the count gets a second to settle.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	if stacks := buf[:runtime.Stack(buf, true)]; strings.Contains(string(stacks), "epoch.replayRun(") {
		t.Fatalf("a run was still replaying after ReplayEpoch returned:\n%s", stacks)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after ReplayEpoch returned, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestReplayEpochConcurrentMatchesSerial replays an 8-run epoch whole and
// run by run: at 4 and at 1 procs the whole replay gives, in run order,
// the verdicts of the single-run replays, and leaves no goroutine behind.
func TestReplayEpochConcurrentMatchesSerial(t *testing.T) {
	data := sealEightRuns(t)
	for _, procs := range []int{4, 1} {
		withProcs(procs, func() {
			light.ResetScheduleCache()
			base := runtime.NumGoroutine()
			v, err := ReplayEpoch(data, -1)
			if err != nil {
				t.Fatalf("procs %d: ReplayEpoch: %v", procs, err)
			}
			checkGoroutines(t, base)
			if !v.Pass || len(v.Runs) != len(data.Runs) {
				t.Fatalf("procs %d: verdict = %+v, want pass with %d runs", procs, v, len(data.Runs))
			}
			for i, rv := range v.Runs {
				one, err := ReplayEpoch(data, i)
				if err != nil {
					t.Fatalf("procs %d: ReplayEpoch(run %d): %v", procs, i, err)
				}
				if got, want := untimed(rv), untimed(one.Runs[0]); got != want {
					t.Fatalf("procs %d: run %d verdict = %+v, alone %+v", procs, i, got, want)
				}
			}
		})
	}
}

// damage gives each named run a dependence at a negative location, which
// ComputeSchedule rejects before solving.
func damage(data *SegmentData, runs ...int) *SegmentData {
	out := *data
	out.Runs = append([]RunRecord(nil), data.Runs...)
	for _, i := range runs {
		log := *out.Runs[i].Log
		log.Deps = append(append([]trace.Dep(nil), log.Deps...), trace.Dep{Loc: -1, W: trace.TC{Thread: trace.InitialThread}, R: trace.TC{Thread: 0, Counter: 1}})
		out.Runs[i].Log = &log
	}
	return &out
}

// sameSchedule reports whether two logs share a schedule cache key: the
// same threads, locations, deps and ranges.
func sameSchedule(a, b *trace.Log) bool {
	return len(a.Threads) == len(b.Threads) && a.NumLocs == b.NumLocs &&
		reflect.DeepEqual(a.Deps, b.Deps) && reflect.DeepEqual(a.Ranges, b.Ranges)
}

// TestReplayEpochConcurrentFirstError damages two runs of an 8-run epoch:
// ReplayEpoch returns the lower one's error, as a serial loop would, and
// leaves no goroutine behind. Runs 1 and 2 start together at 4 procs, so
// either may fail first.
func TestReplayEpochConcurrentFirstError(t *testing.T) {
	data := sealEightRuns(t)
	for _, tc := range []struct{ procs, first, second int }{{4, 2, 5}, {4, 1, 2}, {1, 2, 5}} {
		withProcs(tc.procs, func() {
			light.ResetScheduleCache()
			base := runtime.NumGoroutine()
			v, err := ReplayEpoch(damage(data, tc.first, tc.second), -1)
			checkGoroutines(t, base)
			want := fmt.Sprintf("epoch: solving run %d:", tc.first)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("procs %d, runs %d and %d damaged: verdict %+v, err %v; want %q", tc.procs, tc.first, tc.second, v, err, want)
			}
		})
	}
	// One worker stops at the first failure: no run after it starts, so
	// none of their schedules reached the cache (unless an earlier run's
	// log has the same content).
	withProcs(1, func() {
		light.ResetScheduleCache()
		if _, err := ReplayEpoch(damage(data, 2), -1); err == nil {
			t.Fatal("damaged run 2 replayed without error")
		}
	runs:
		for i := 3; i < len(data.Runs); i++ {
			for j := 0; j < i; j++ {
				if sameSchedule(data.Runs[i].Log, data.Runs[j].Log) {
					continue runs
				}
			}
			if _, hit, err := light.ComputeScheduleCached(data.Runs[i].Log); err != nil || hit {
				t.Fatalf("run %d after the failed run 2 was solved (cache hit %v, err %v)", i, hit, err)
			}
		}
	})
}
