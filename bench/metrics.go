package main

import "time"

// metricDef names one reported metric. BENCHMARK.json declares the same
// lists (with the end-to-end bounds); a test keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run and bounded in BENCHMARK.json. Every timing is a ratio to
// a native run of the same program measured next to it: a shared host's
// speed drifts by tens of percent over minutes, and only the ratio
// survives that (bench/README.md, "Metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"record_overhead", "x", "lower"},
	{"record_overhead_p90", "x", "lower"},
	{"record_alloc_kb", "KiB", "lower"},
	{"log_bytes_per_kaccess", "B/kaccess", "lower"},
	{"reproduce_overhead", "x", "lower"},
	{"reproduce_overhead_p90", "x", "lower"},
	{"ttfr_overhead", "x", "lower"},
	{"session_overhead", "x", "lower"},
	{"epoch_replay_overhead", "x", "lower"},
}

// timings are the same paths in absolute units. Untraced runs print them
// and -out records them, without a bound: their spread across runs on a
// shared host is wider than any useful bound.
var timings = []metricDef{
	{"record_ms_p50", "ms", "lower"},
	{"record_ms_p90", "ms", "lower"},
	{"reproduce_ms_p50", "ms", "lower"},
	{"reproduce_ms_p90", "ms", "lower"},
	{"ttfr_ms_p50", "ms", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"epoch_replay_ms_p50", "ms", "lower"},
}

// perLayer are the single-layer metrics, reported by every traced run.
var perLayer = []metricDef{
	{"compiler.compile_ms", "ms", "lower"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"analysis.instrumented_site_frac", "ratio", "lower"},
	{"vm.native_ms_p50", "ms", "lower"},
	{"vm.nop_hooks_ms_p50", "ms", "lower"},
	{"vm.steps_per_run", "count", "lower"},
	{"vm.accesses_per_run", "count", "lower"},
	{"light.recorder.self_ms_p50", "ms", "lower"},
	{"light.recorder.events_per_kaccess", "count", "lower"},
	{"light.recorder.read_retries_per_kaccess", "count", "lower"},
	{"light.recorder.seqlock_conflicts_per_kaccess", "count", "lower"},
	{"light.recorder.stripe_contention_per_kaccess", "count", "lower"},
	{"light.recorder.foreign_taints_per_kaccess", "count", "lower"},
	{"light.recorder.prec_suppressed_per_kaccess", "count", "higher"},
	{"light.recorder.o1_absorbed_per_kaccess", "count", "higher"},
	{"trace.encode_ms_p50", "ms", "lower"},
	{"trace.bytes_per_event", "B", "lower"},
	{"trace.decode_ms_p50", "ms", "lower"},
	{"light.solve.ms_p50", "ms", "lower"},
	{"light.solve.ms_p90", "ms", "lower"},
	{"light.solve.disjunctions", "count", "lower"},
	{"light.solve.resolved", "count", "higher"},
	{"light.solve.components", "count", "higher"},
	{"light.solve.largest_component", "count", "lower"},
	{"light.solve.fastpath_rate", "ratio", "higher"},
	{"light.solve.cdcl_components", "count", "lower"},
	{"light.cache.hit_rate", "ratio", "higher"},
	{"light.stream.finish_ms_p50", "ms", "lower"},
	{"light.stream.reuse_frac", "ratio", "higher"},
	{"light.stream.wasted", "count", "lower"},
	{"light.stream.stragglers", "count", "lower"},
	{"light.replay.ms_p50", "ms", "lower"},
	{"light.replay.gated_waits", "count", "lower"},
	{"light.replay.blind_writes_suppressed", "count", "lower"},
	{"light.check.ms_p50", "ms", "lower"},
	{"epoch.seal_ms_p50", "ms", "lower"},
	{"epoch.fsyncs_per_epoch", "count", "lower"},
	{"epoch.bytes_per_run", "B", "lower"},
	{"epoch.record_ms_per_run", "ms", "lower"},
	{"epoch.presolved_frac", "ratio", "higher"},
	{"obs.trace_overhead_frac", "ratio", "lower"},
}

// measured is everything one run collected.
type measured struct {
	setups, compiles, analyzes []time.Duration
	siteFrac                   float64
	samples                    []sample // verified iterations only
	ao                         *alwaysOn
}

// collect gathers one value per verified iteration.
func (m *measured) collect(f func(s *sample) float64) []float64 {
	out := make([]float64, len(m.samples))
	for i := range m.samples {
		out[i] = f(&m.samples[i])
	}
	return out
}

func (m *measured) p50(f func(s *sample) float64) float64 { return median(m.collect(f)) }

func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// nativeMSSince returns the median native run time of the verified
// iterations from index i on, or of all of them when there are none.
func (m *measured) nativeMSSince(i int) float64 {
	native := m.collect(func(s *sample) float64 { return ms(s.native) })
	if i < len(native) {
		native = native[i:]
	}
	return median(native)
}

// endToEndValues computes every end-to-end metric and every timing.
func (m *measured) endToEndValues() map[string]float64 {
	record := m.collect(func(s *sample) float64 { return ms(s.record) })
	reproduce := m.collect(func(s *sample) float64 { return ms(s.reproduce) })
	recordX := m.collect(func(s *sample) float64 { return ratio(ms(s.record), ms(s.native)) })
	reproduceX := m.collect(func(s *sample) float64 { return ratio(ms(s.reproduce), ms(s.native)) })
	var runs, wallNS float64
	for _, r := range m.ao.rows {
		runs += float64(r.Runs)
		wallNS += float64(r.WallNS)
	}
	return map[string]float64{
		"setup_s":             durMedian(m.setups) / 1000,
		"record_overhead":     median(recordX),
		"record_overhead_p90": percentile(recordX, 0.9),
		"record_alloc_kb":     m.p50(func(s *sample) float64 { return float64(s.allocBytes) / 1024 }),
		"log_bytes_per_kaccess": m.p50(func(s *sample) float64 {
			return ratio(float64(s.logBytes)*1000, float64(s.accesses))
		}),
		"reproduce_overhead":     median(reproduceX),
		"reproduce_overhead_p90": percentile(reproduceX, 0.9),
		"ttfr_overhead":          m.p50(func(s *sample) float64 { return ratio(ms(s.ttfr), ms(s.native)) }),
		"session_overhead":       median(m.ao.sessionX),
		"epoch_replay_overhead":  median(m.ao.epochReplayX),

		"record_ms_p50":       median(record),
		"record_ms_p90":       percentile(record, 0.9),
		"reproduce_ms_p50":    median(reproduce),
		"reproduce_ms_p90":    percentile(reproduce, 0.9),
		"ttfr_ms_p50":         m.p50(func(s *sample) float64 { return ms(s.ttfr) }),
		"runs_per_s":          ratio(runs, wallNS/1e9),
		"epoch_replay_ms_p50": median(m.ao.epochReplayMS),
	}
}

// perLayerValues computes every per-layer metric of a traced run.
func (m *measured) perLayerValues() map[string]float64 {
	var acc, retries, seq, stripe, taints, prec, o1 float64
	var specSolved, reused float64
	for _, s := range m.samples {
		acc += float64(s.accesses)
		c := s.counters
		retries += float64(c.ReadRetries)
		seq += float64(c.SeqConflicts)
		stripe += float64(c.StripeContention)
		taints += float64(c.ForeignTaints)
		prec += float64(c.PrecSuppressed)
		o1 += float64(c.O1Absorbed)
		specSolved += float64(s.stream.SpecSolved)
		reused += float64(s.stream.Reused)
	}
	perK := func(n float64) float64 { return ratio(n*1000, acc) }
	count := func(f func(s *sample) int) float64 { return m.p50(func(s *sample) float64 { return float64(f(s)) }) }
	solve := m.collect(func(s *sample) float64 { return ms(s.solve) })

	var seal, fsyncs []float64
	var bytes, runs, recordNS float64
	for _, r := range m.ao.rows {
		seal = append(seal, float64(r.SealNS)/1e6)
		fsyncs = append(fsyncs, float64(r.Fsyncs))
		bytes += float64(r.Bytes)
		runs += float64(r.Runs)
		recordNS += float64(r.RecordNS)
	}
	return map[string]float64{
		"compiler.compile_ms":             durMedian(m.compiles),
		"analysis.analyze_ms":             durMedian(m.analyzes),
		"analysis.instrumented_site_frac": m.siteFrac,
		"vm.native_ms_p50":                m.p50(func(s *sample) float64 { return ms(s.native) }),
		"vm.nop_hooks_ms_p50":             m.p50(func(s *sample) float64 { return ms(s.nop) }),
		"vm.steps_per_run":                m.p50(func(s *sample) float64 { return float64(s.steps) }),
		"vm.accesses_per_run":             m.p50(func(s *sample) float64 { return float64(s.accesses) }),
		"light.recorder.self_ms_p50":      m.p50(func(s *sample) float64 { return ms(s.record - s.nop) }),
		"light.recorder.events_per_kaccess": m.p50(func(s *sample) float64 {
			return ratio(float64(s.events)*1000, float64(s.accesses))
		}),
		"light.recorder.read_retries_per_kaccess":      perK(retries),
		"light.recorder.seqlock_conflicts_per_kaccess": perK(seq),
		"light.recorder.stripe_contention_per_kaccess": perK(stripe),
		"light.recorder.foreign_taints_per_kaccess":    perK(taints),
		"light.recorder.prec_suppressed_per_kaccess":   perK(prec),
		"light.recorder.o1_absorbed_per_kaccess":       perK(o1),
		"trace.encode_ms_p50":                          m.p50(func(s *sample) float64 { return ms(s.encode) }),
		"trace.bytes_per_event":                        m.p50(func(s *sample) float64 { return ratio(float64(s.logBytes), float64(s.events)) }),
		"trace.decode_ms_p50":                          m.p50(func(s *sample) float64 { return ms(s.decode) }),
		"light.solve.ms_p50":                           median(solve),
		"light.solve.ms_p90":                           percentile(solve, 0.9),
		"light.solve.disjunctions":                     count(func(s *sample) int { return s.stats.Disjunctions }),
		"light.solve.resolved":                         count(func(s *sample) int { return s.stats.Resolved }),
		"light.solve.components":                       count(func(s *sample) int { return s.stats.Components }),
		"light.solve.largest_component":                count(func(s *sample) int { return s.stats.LargestComponent }),
		"light.solve.fastpath_rate":                    m.p50(func(s *sample) float64 { return s.stats.FastpathRate() }),
		"light.solve.cdcl_components":                  count(func(s *sample) int { return s.stats.Components - s.stats.FastpathComponents }),
		"light.cache.hit_rate":                         m.p50(func(s *sample) float64 { return float64(s.warmHits) / 2 }),
		"light.stream.finish_ms_p50":                   m.p50(func(s *sample) float64 { return float64(s.stream.FinishNS) / 1e6 }),
		"light.stream.reuse_frac":                      ratio(reused, specSolved),
		"light.stream.wasted":                          count(func(s *sample) int { return s.stream.Wasted }),
		"light.stream.stragglers":                      count(func(s *sample) int { return s.stream.Stragglers }),
		"light.replay.ms_p50":                          m.p50(func(s *sample) float64 { return ms(s.replay) }),
		"light.replay.gated_waits":                     m.p50(func(s *sample) float64 { return float64(s.gatedWaits) }),
		"light.replay.blind_writes_suppressed":         m.p50(func(s *sample) float64 { return float64(s.blindSuppressed) }),
		"light.check.ms_p50":                           m.p50(func(s *sample) float64 { return ms(s.check) }),
		"epoch.seal_ms_p50":                            median(seal),
		"epoch.fsyncs_per_epoch":                       median(fsyncs),
		"epoch.bytes_per_run":                          ratio(bytes, runs),
		"epoch.record_ms_per_run":                      ratio(recordNS/1e6, runs),
		"epoch.presolved_frac":                         ratio(float64(m.ao.preSolved), float64(m.ao.runs)),
		"obs.trace_overhead_frac": ratio(m.p50(func(s *sample) float64 { return ms(s.recordObs) }),
			m.p50(func(s *sample) float64 { return ms(s.record) })) - 1,
	}
}
