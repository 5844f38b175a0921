package light

import "repro/internal/obs"

// The package's observability surface (DESIGN.md §7 documents every name and
// the paper quantity it approximates). All metrics are no-ops until
// obs.Enable(); the recorder and replayer additionally cache the enable flag
// at construction so the hot paths skip the calls entirely when disabled.
var (
	// Recorder — Algorithm 1's dynamic behavior.
	mRecReads = obs.NewCounter("light_recorder_shared_reads_total",
		"instrumented shared reads observed by the recorder")
	mRecWrites = obs.NewCounter("light_recorder_shared_writes_total",
		"instrumented shared writes observed by the recorder")
	mRecReadRetries = obs.NewCounter("light_recorder_read_retries_total",
		"re-executions of the optimistic read validation loop (Section 2.3)")
	mRecSeqConflicts = obs.NewCounter("light_recorder_seqlock_conflicts_total",
		"write sections that lost the per-location seqlock CAS and took the stripe-lock fallback")
	mRecStripeAcquisitions = obs.NewCounter("light_recorder_stripe_acquisitions_total",
		"write-path acquisitions of a fallback stripe lock (seqlock conflicts only; Section 4.1)")
	mRecStripeContention = obs.NewCounter("light_recorder_stripe_contention_total",
		"fallback stripe-lock acquisitions that had to block behind another thread")
	mRecPrecSuppressed = obs.NewCounter("light_recorder_prec_suppressed_total",
		"reads absorbed by the prec first-read-only reduction (Algorithm 1 lines 7-9)")
	mRecO1Absorbed = obs.NewCounter("light_recorder_o1_absorbed_total",
		"accesses absorbed into an open non-interleaved run (O1, Lemma 4.3)")
	mRecForeignTaints = obs.NewCounter("light_recorder_foreign_read_taints_total",
		"write-bearing runs tainted by a foreign read (anchor-soundness closure)")
	mRecDeps = obs.NewCounter("light_recorder_deps_total",
		"flow dependences emitted into logs")
	mRecRanges = obs.NewCounter("light_recorder_ranges_total",
		"non-interleaved ranges emitted into logs")
	mRecSyscalls = obs.NewCounter("light_recorder_syscalls_total",
		"nondeterministic builtin results recorded for replay substitution")
	mRecSpaceLongs = obs.NewCounter("light_recorder_space_longs_total",
		"recorded space in the paper's Long-integer units (Section 5.2)")
	mRecRunLength = obs.NewHistogram("light_recorder_run_length",
		"length (access count) of closed recorder runs")
	mRecThreadDeps = obs.NewHistogram("light_recorder_thread_buffer_deps",
		"per-thread dependence buffer length at merge")
	mRecThreadRanges = obs.NewHistogram("light_recorder_thread_buffer_ranges",
		"per-thread range buffer length at merge")

	// Partitioned solver — the Section 4.2 constraint system.
	mSolveRuns = obs.NewCounter("light_solve_runs_total",
		"schedule computations performed")
	mSolveIntVars = obs.NewCounter("light_solve_intvars_total",
		"integer order variables across all solves")
	mSolveDisjunctions = obs.NewCounter("light_solve_disjunctions_total",
		"non-interference disjunctions generated across all solves")
	mSolveResolved = obs.NewCounter("light_solve_resolved_total",
		"disjunctions decided by propagation, without search")
	mSolveComponents = obs.NewHistogram("light_solve_components",
		"locations per solve (each location is one cluster of the constraint system)")
	mSolveComponentVars = obs.NewHistogram("light_solve_component_vars",
		"endpoint-variable count of each CDCL(T) residual search")
	mSolveComponentNS = obs.NewHistogram("light_solve_component_ns",
		"wall nanoseconds spent in each CDCL(T) residual search")

	// Graph-first engine (DESIGN.md §4d): the fast path (propagation, or
	// per-location construction) and the CDCL fallback.
	mSolveFastpathComponents = obs.NewCounter("light_solve_fastpath_components_total",
		"locations decided without a CDCL invocation: by propagation alone, or by per-location construction")
	mSolveCDCLComponents = obs.NewCounter("light_solve_cdcl_components_total",
		"locations holding residual disjunctions that the CDCL(T) fallback searched")
	mSolveFastpathRate = obs.NewGauge("light_solve_fastpath_rate",
		"fastpath/total location ratio of the last graph-first solve")

	// Whole-schedule cache (cache.go).
	mScheduleCacheHits = obs.NewCounter("light_schedule_cache_hits_total",
		"whole-schedule cache hits (synthesis skipped entirely)")
	mScheduleCacheMisses = obs.NewCounter("light_schedule_cache_misses_total",
		"whole-schedule cache misses (schedule computed and stored)")
)

// RecorderCounters is a point-in-time snapshot of the recorder's contention
// and reduction counters. The bench harness takes one snapshot before and one
// after an obs-enabled record pass and reports the deltas as the multicore
// sweep's contention columns (schema light-bench/v3).
type RecorderCounters struct {
	Reads              uint64
	Writes             uint64
	ReadRetries        uint64
	SeqConflicts       uint64
	StripeAcquisitions uint64
	StripeContention   uint64
	ForeignTaints      uint64
	PrecSuppressed     uint64
	O1Absorbed         uint64
}

// SnapshotRecorderCounters reads the current recorder counter values. Deltas
// between snapshots are only meaningful while obs metrics are enabled.
func SnapshotRecorderCounters() RecorderCounters {
	return RecorderCounters{
		Reads:              mRecReads.Value(),
		Writes:             mRecWrites.Value(),
		ReadRetries:        mRecReadRetries.Value(),
		SeqConflicts:       mRecSeqConflicts.Value(),
		StripeAcquisitions: mRecStripeAcquisitions.Value(),
		StripeContention:   mRecStripeContention.Value(),
		ForeignTaints:      mRecForeignTaints.Value(),
		PrecSuppressed:     mRecPrecSuppressed.Value(),
		O1Absorbed:         mRecO1Absorbed.Value(),
	}
}

// Sub returns the per-field difference c - prev.
func (c RecorderCounters) Sub(prev RecorderCounters) RecorderCounters {
	return RecorderCounters{
		Reads:              c.Reads - prev.Reads,
		Writes:             c.Writes - prev.Writes,
		ReadRetries:        c.ReadRetries - prev.ReadRetries,
		SeqConflicts:       c.SeqConflicts - prev.SeqConflicts,
		StripeAcquisitions: c.StripeAcquisitions - prev.StripeAcquisitions,
		StripeContention:   c.StripeContention - prev.StripeContention,
		ForeignTaints:      c.ForeignTaints - prev.ForeignTaints,
		PrecSuppressed:     c.PrecSuppressed - prev.PrecSuppressed,
		O1Absorbed:         c.O1Absorbed - prev.O1Absorbed,
	}
}

// Replayer — schedule enforcement.
var (
	mRepGatedWaits = obs.NewCounter("light_replay_gated_waits_total",
		"scheduled accesses that found their same-location predecessor pending")
	mRepParks = obs.NewCounter("light_replay_parks_total",
		"gated waits that used up their yield bound and parked until the predecessor executed")
	mRepBlindSuppressed = obs.NewCounter("light_replay_blind_writes_suppressed_total",
		"blind writes suppressed during replay (Section 4.2)")
	mRepDivergences = obs.NewCounter("light_replay_divergence_total",
		"replays that diverged from the recorded behavior")
)
