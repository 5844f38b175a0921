package obs

import (
	"math"
	"sort"
)

// This file is the registry's point-in-time capture API: Snapshot freezes
// every counter, gauge, and histogram bucket; Delta subtracts two snapshots
// into an interval view; and Quantile estimates p50/p95/p99 from the fixed
// log2 buckets. lightd's epoch telemetry ledger (internal/epoch) is the
// primary consumer — at each epoch cut it fuses Snapshot.Delta(prev) with
// the epoch's own facts into a durable per-epoch stats frame, so cumulative
// process counters become interval-scoped, attributable rows.

// HistogramSnapshot is one histogram's frozen bucket state.
type HistogramSnapshot struct {
	// Buckets holds the non-cumulative per-bucket counts (see BucketIndex
	// for the log2 bucket layout).
	Buckets []uint64 `json:"buckets"`
	// Count and Sum mirror the histogram's totals at capture time.
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// from the log2 buckets: the bucket containing the target rank is located
// by cumulative count, then the estimate interpolates linearly between the
// bucket's bounds by the rank's position inside the bucket. The estimate
// is exact to within the bucket's width (a factor of 2 above 1); an empty
// snapshot estimates 0, and values in the zero bucket estimate 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		lo := float64(BucketBound(i-1)) + 1
		hi := float64(BucketBound(i))
		// Rank position inside this bucket, midpoint convention: the k-th
		// of c values sits at fraction (k - 0.5)/c of the bucket's width.
		k := float64(rank - (cum - c))
		frac := (k - 0.5) / float64(c)
		return lo + frac*(hi-lo)
	}
	return float64(BucketBound(len(h.Buckets) - 1))
}

// Sub returns the bucket-wise difference h − prev, clamping each bucket
// (and count/sum) at zero so a reset between snapshots cannot produce
// negative interval counts.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Buckets: make([]uint64, len(h.Buckets))}
	for i, c := range h.Buckets {
		var p uint64
		if i < len(prev.Buckets) {
			p = prev.Buckets[i]
		}
		if c > p {
			out.Buckets[i] = c - p
		}
	}
	if h.Count > prev.Count {
		out.Count = h.Count - prev.Count
	}
	if h.Sum > prev.Sum {
		out.Sum = h.Sum - prev.Sum
	}
	return out
}

// Snapshot is a point-in-time capture of a registry: every counter value,
// gauge value, and histogram bucket state, keyed by metric name. Capture is
// per-metric atomic (each value is read with the same atomics the hot paths
// write), so a snapshot taken under concurrent writers is always a sane,
// monotonic view — individual metrics never tear, though the snapshot as a
// whole is not a cross-metric transaction.
type Snapshot struct {
	// Counters, Gauges, and Histograms hold the captured values by name.
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric registered in r at a point in time.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, m := range ms {
		switch v := m.(type) {
		case *Counter:
			s.Counters[v.name] = v.Value()
		case *Gauge:
			s.Gauges[v.name] = v.Value()
		case *Histogram:
			// Count is the sum of the loaded buckets, not the count word:
			// Observe bumps a bucket before the count, so a concurrently
			// loaded count can disagree with the buckets in either
			// direction, and Quantile's rank search needs them consistent.
			hs := HistogramSnapshot{Buckets: make([]uint64, histBuckets)}
			for i := range v.buckets {
				hs.Buckets[i] = v.buckets[i].Load()
				hs.Count += hs.Buckets[i]
			}
			hs.Sum = v.sum.Load()
			s.Histograms[v.name] = hs
		}
	}
	return s
}

// TakeSnapshot captures the Default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Delta returns the interval view s − prev: counters and histogram buckets
// are subtracted (clamped at zero, so metric resets between snapshots yield
// empty intervals rather than underflow), gauges keep their current value
// (a gauge is already a point-in-time reading). Metrics present only in s
// (registered after prev was taken) delta against zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		if p := prev.Counters[name]; v > p {
			d.Counters[name] = v - p
		} else {
			d.Counters[name] = 0
		}
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, v := range s.Histograms {
		d.Histograms[name] = v.Sub(prev.Histograms[name])
	}
	return d
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns the named histogram's snapshot (empty when absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// Names returns every registered metric name in r, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.metrics))
	for _, m := range r.metrics {
		names = append(names, m.metricName())
	}
	sort.Strings(names)
	return names
}
