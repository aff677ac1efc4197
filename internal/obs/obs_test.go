package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("inflight", "in-flight")
	if got := g.Inc(); got != 1 {
		t.Fatalf("Inc = %d, want 1", got)
	}
	g.Set(10)
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond} {
		h.Observe(d)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Mean(); got != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", got)
	}
	if got := h.Sum(); got != 9*time.Millisecond {
		t.Fatalf("sum = %v, want 9ms", got)
	}
}

func TestHistogramQuantileWithinBucketError(t *testing.T) {
	var h Histogram
	// 1000 samples at exactly 1ms: every quantile must land in the
	// bucket containing 1ms, i.e. within a factor of 2.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		q := h.Quantile(p)
		if q < 512*time.Microsecond || q > 2*time.Millisecond {
			t.Fatalf("quantile(%v) = %v, want within 2x of 1ms", p, q)
		}
	}
	if h.Quantile(0.5) > h.Quantile(0.99)+1 {
		t.Fatal("quantiles are not monotone")
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second)
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if got := h.Sum(); got != 0 {
		t.Fatalf("sum = %v, want 0 (negative clamped)", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "")
	l := r.SlowLog("x", 8)
	if c != nil || g != nil || h != nil || l != nil {
		t.Fatal("nil registry must return nil metrics")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Second)
	h.Since(time.Now())
	if l.Worthy(time.Hour) {
		t.Fatal("nil slowlog admitted a trace")
	}
	l.Record(Trace{Total: time.Hour})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || l.Len() != 0 {
		t.Fatal("nil metrics must stay zero")
	}
	r.CounterFunc("f", "", func() int64 { return 1 })
	r.GaugeFunc("f", "", func() int64 { return 1 })
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledPathAllocationFree locks down the acceptance criterion
// that uninstrumented hot paths allocate nothing: nil metric updates
// and the stage recorder of an uninstrumented component must be
// alloc-free (and, for the recorder, clock-read-free — not measurable
// here, but the branch structure is).
func TestDisabledPathAllocationFree(t *testing.T) {
	var c *Counter
	var h *Histogram
	var l *SlowLog
	var timer *StageTimer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(time.Millisecond)
		rec, _ := timer.Start(context.Background(), 0)
		rec.Mark(1)
		rec.End(nil, nil)
		l.Worthy(time.Second)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

// TestEnabledHotPathAllocationFree proves the instrumented fast path
// is allocation-free too: histogram observes and counter adds are
// atomic ops on pre-allocated cells.
func TestEnabledHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per op, want 0", allocs)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`frames_total{dir="in"}`, "frames by direction").Add(7)
	r.Counter(`frames_total{dir="out"}`, "frames by direction").Add(9)
	r.Gauge("inflight", "in-flight calls").Set(3)
	r.GaugeFunc("records", "record count", func() int64 { return 42 })
	h := r.Histogram(`stage_seconds{stage="build"}`, "stage latency")
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE frames_total counter",
		`frames_total{dir="in"} 7`,
		`frames_total{dir="out"} 9`,
		"# TYPE inflight gauge",
		"inflight 3",
		"records 42",
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="build",le="+Inf"} 2`,
		`stage_seconds_count{stage="build"} 2`,
		`stage_seconds_sum{stage="build"} 0.003`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with two labelled series.
	if got := strings.Count(out, "# TYPE frames_total"); got != 1 {
		t.Errorf("frames_total TYPE lines = %d, want 1", got)
	}
}

func TestSlowLogRetainsSlowest(t *testing.T) {
	r := NewRegistry()
	l := r.SlowLog("access", 4)
	for i := 1; i <= 10; i++ {
		total := time.Duration(i) * time.Millisecond
		if l.Worthy(total) {
			l.Record(Trace{At: time.Now(), Label: "req", Total: total,
				Stages: []Stage{{Name: "build", D: total / 2}, {Name: "rpc", D: total / 2}}})
		}
	}
	entries := l.Entries()
	if len(entries) != 4 {
		t.Fatalf("retained %d, want 4", len(entries))
	}
	wants := []time.Duration{10, 9, 8, 7}
	for i, want := range wants {
		if entries[i].Total != want*time.Millisecond {
			t.Fatalf("entry %d = %v, want %vms", i, entries[i].Total, want)
		}
	}
	// Once full, the floor rejects faster requests without locking.
	if l.Worthy(3 * time.Millisecond) {
		t.Fatal("slowlog should reject below-floor totals")
	}
	if l.Worthy(7 * time.Millisecond) {
		t.Fatal("floor is inclusive: equal totals are rejected")
	}
	if !l.Worthy(11 * time.Millisecond) {
		t.Fatal("slowlog should admit a new slowest")
	}
}

func TestAdminEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops").Add(5)
	h := r.Histogram("lat_seconds", "latency")
	h.Observe(time.Millisecond)
	l := r.SlowLog("access", 4)
	l.Record(Trace{At: time.Now(), Label: "k", Total: time.Second,
		Stages: []Stage{{Name: "rpc", D: time.Second}}})

	ts := httptest.NewServer(AdminMux(r))
	defer ts.Close()

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("healthz = %q", body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"ops_total 5", "lat_seconds_count 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	slow := get("/slowlog")
	for _, want := range []string{"access", "total=1s", "rpc=1s"} {
		if !strings.Contains(slow, want) {
			t.Errorf("slowlog missing %q:\n%s", want, slow)
		}
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index missing goroutine profile")
	}
}

func TestServeAdmin(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	srv, err := ServeAdmin("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
