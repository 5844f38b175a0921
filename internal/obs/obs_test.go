package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// withMetrics runs fn with metric collection enabled, restoring the previous
// state afterwards. The obs tests mutate process-global switches, so none of
// them run in parallel.
func withMetrics(t *testing.T, fn func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	fn()
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must fall at or below its bucket's bound and above the
	// previous bucket's bound.
	for _, c := range cases {
		if c.v <= 0 {
			continue
		}
		i := BucketIndex(c.v)
		if uint64(c.v) > BucketBound(i) {
			t.Errorf("value %d above bound %d of its bucket %d", c.v, BucketBound(i), i)
		}
		if i > 0 && uint64(c.v) <= BucketBound(i-1) {
			t.Errorf("value %d within previous bucket %d (bound %d)", c.v, i-1, BucketBound(i-1))
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	withMetrics(t, func() {
		r := NewRegistry()
		h := r.NewHistogram("t_hist", "test")
		for _, v := range []int64{0, 1, 1, 3, 4, 100, -2} {
			h.Observe(v)
		}
		if h.Count() != 7 {
			t.Fatalf("count = %d, want 7", h.Count())
		}
		if h.Sum() != 109 {
			t.Fatalf("sum = %d, want 109", h.Sum())
		}
		wantBuckets := map[int]uint64{0: 2, 1: 2, 2: 1, 3: 1, 7: 1}
		for i, want := range wantBuckets {
			if got := h.BucketCount(i); got != want {
				t.Errorf("bucket %d = %d, want %d", i, got, want)
			}
		}
	})
}

// TestPrometheusGolden pins the exact text-exposition rendering against a
// golden file: a counter, a gauge, and a histogram with known observations,
// sorted by name.
func TestPrometheusGolden(t *testing.T) {
	withMetrics(t, func() {
		r := NewRegistry()
		c := r.NewCounter("light_test_events_total", "events seen by the test")
		g := r.NewGauge("light_test_utilization", "test worker utilization")
		h := r.NewHistogram("light_test_run_length", "test run lengths")
		c.Add(42)
		g.Set(0.75)
		for _, v := range []int64{1, 2, 2, 5, 9} {
			h.Observe(v)
		}

		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "prometheus.golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("rendering mismatch\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
		}
	})
}

// TestDisabledNoop checks the no-op parity of the disabled implementation:
// the same instrumentation calls leave every metric at zero, and rendering
// still works.
func TestDisabledNoop(t *testing.T) {
	if Enabled() {
		t.Skip("metrics enabled by another test binary state")
	}
	r := NewRegistry()
	c := r.NewCounter("t_noop_counter", "x")
	g := r.NewGauge("t_noop_gauge", "x")
	h := r.NewHistogram("t_noop_hist", "x")
	c.Inc()
	c.Add(10)
	g.Set(3.5)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("disabled metrics recorded values: counter=%d gauge=%g hist=%d",
			c.Value(), g.Value(), h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("disabled registry rendered nothing")
	}
}

func TestEnableDisableTransition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_transition_total", "x")
	c.Inc() // disabled: dropped
	withMetrics(t, func() {
		c.Inc()
		c.Inc()
	})
	c.Inc() // disabled again (unless the whole binary runs enabled)
	if Enabled() {
		t.Skip("cannot observe the disabled edge while globally enabled")
	}
	if c.Value() != 2 {
		t.Fatalf("counter = %d, want exactly the 2 enabled increments", c.Value())
	}
	r.ResetAll()
	if c.Value() != 0 {
		t.Fatalf("ResetAll left counter at %d", c.Value())
	}
}

func TestSpans(t *testing.T) {
	ResetSpans()
	DisableTracing()
	if s := StartSpan("dead"); s != nil {
		t.Fatal("StartSpan returned a span while tracing is disabled")
	}
	// nil-safety of every method.
	var nilSpan *Span
	nilSpan.SetBytes(1)
	nilSpan.SetItems(1)
	nilSpan.End()

	EnableTracing()
	defer DisableTracing()
	s := StartSpan("solve")
	s.SetBytes(128)
	s.SetItems(3)
	time.Sleep(time.Millisecond)
	s.End()

	spans := Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Name != "solve" || got.Bytes != 128 || got.Items != 3 {
		t.Fatalf("span = %+v", got)
	}
	if got.DurNS <= 0 || got.StartUnixNS <= 0 {
		t.Fatalf("span timing not recorded: %+v", got)
	}

	ResetSpans()
}

// serveCounter is TestServeMetrics' counter. It registers once per process
// in the Default registry, so the test can repeat (-count=N).
var serveCounter = NewCounter("t_serve_requests_total", "test counter for the /metrics endpoint")

func TestServeMetrics(t *testing.T) {
	was := Enabled()
	defer func() {
		if !was {
			Disable()
		}
	}()
	addr, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("ServeMetrics did not enable metrics")
	}
	serveCounter.Add(7)
	want := fmt.Sprintf("t_serve_requests_total %d", serveCounter.Value())
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(want)) {
		t.Fatalf("metrics body missing counter value:\n%s", body)
	}
}
