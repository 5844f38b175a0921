package epoch

import "repro/internal/obs"

// The epoch subsystem's observability surface (DESIGN.md §7 and §9). All
// metrics are no-ops until obs.Enable(); lightd enables them at startup, so
// every counter below is live on the daemon's /metrics endpoint.
var (
	mRunsRecorded = obs.NewCounter("epoch_runs_recorded_total",
		"complete record runs appended to epoch segments")
	mEpochsCut = obs.NewCounter("epoch_cuts_total",
		"epochs sealed by a clean cut (run-count or interval trigger)")
	mEpochsRecovered = obs.NewCounter("epoch_recovered_total",
		"epochs sealed by crash recovery at startup")
	mCheckpoints = obs.NewCounter("epoch_checkpoints_total",
		"durability checkpoints written (fsync barriers inside segments)")
	mSegmentBytes = obs.NewCounter("epoch_segment_bytes_written_total",
		"bytes framed into segment files, headers and seals included")
	mTornTails = obs.NewCounter("epoch_torn_tails_truncated_total",
		"torn tail frames truncated during crash recovery")
	mTruncatedBytes = obs.NewCounter("epoch_truncated_bytes_total",
		"bytes cut off segment tails during crash recovery")
	mGCPrunedEpochs = obs.NewCounter("epoch_gc_pruned_epochs_total",
		"sealed epochs deleted by retention GC")
	mGCPrunedBytes = obs.NewCounter("epoch_gc_pruned_bytes_total",
		"segment bytes reclaimed by retention GC")
	mReplayRequests = obs.NewCounter("epoch_replay_requests_total",
		"on-demand epoch replays served")
	mReplayCacheHits = obs.NewCounter("epoch_replay_cache_hits_total",
		"replayed runs whose schedule came from the in-memory whole-schedule cache instead of a fresh synthesis")
	mPreSolves = obs.NewCounter("epoch_presolves_total",
		"sealed runs pre-solved in the background to warm the schedule cache")
	mReplayFailures = obs.NewCounter("epoch_replay_failures_total",
		"on-demand epoch replays that failed verification (divergence, bug mismatch, or fingerprint mismatch)")
	mFsyncs = obs.NewCounter("epoch_fsyncs_total",
		"fsync barriers performed on segment files (header, checkpoints, seal flushes)")
	gRetainedEpochs = obs.NewGauge("epoch_retained_epochs",
		"epochs currently retained on disk")
	gRetainedBytes = obs.NewGauge("epoch_retained_bytes",
		"total segment bytes currently retained on disk")
	gSessionActive = obs.NewGauge("epoch_session_active",
		"1 while a recording session is running, else 0")
	mSealNS = obs.NewHistogram("epoch_seal_ns",
		"pre-seal data flush latency per epoch cut, nanoseconds")
	mRunWallNS = obs.NewHistogram("epoch_run_wall_ns",
		"wall-clock time of individual record runs, nanoseconds")
)

// The daemon-level metrics live here rather than in cmd/lightd so the
// obs↔DESIGN.md docs gate (which walks the default registry from library
// packages) sees every name lightd will serve. They only move when
// cmd/lightd drives them.
var (
	gUptime = obs.NewGauge("lightd_uptime_seconds",
		"seconds since the daemon process started, refreshed on each scrape")
	gHealthState = obs.NewGauge("lightd_health_state",
		"current SLO health state: 0 ok, 1 degraded, 2 unhealthy")
	mHealthTransitions = obs.NewCounter("lightd_health_transitions_total",
		"health state transitions observed since daemon start")
)

// SetUptimeSeconds refreshes the daemon uptime gauge (lightd calls this
// from its /metrics handler so the value is exact at scrape time).
func SetUptimeSeconds(s float64) { gUptime.Set(s) }
