package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestShapeAuditorNilRegistry(t *testing.T) {
	if aud := (*Registry)(nil).ShapeAuditor("proxy"); aud != nil {
		t.Fatal("nil registry must yield a nil (no-op) auditor")
	}
	var aud *ShapeAuditor
	aud.Observe("in", 0x02, 0, true, 100) // must not panic
	if aud.Violations() != 0 {
		t.Fatal("nil auditor must report zero violations")
	}
}

func TestShapeAuditorPinsPerClass(t *testing.T) {
	reg := NewRegistry()
	aud := reg.ShapeAuditor("server")

	// Same class, same length: no violation however many frames.
	for i := 0; i < 10; i++ {
		aud.Observe("in", 0x02, 0, true, 4096)
	}
	// A different class may have a different length.
	aud.Observe("in", 0x0B, 4, true, 16384)
	aud.Observe("in", 0x0B, 4, true, 16384)
	// Same msgType, different direction: independent pin.
	aud.Observe("out", 0x02, 0, true, 640)
	if got := aud.Violations(); got != 0 {
		t.Fatalf("uniform lengths produced %d violations, want 0", got)
	}

	// A length divergence within a pinned class is a violation.
	aud.Observe("in", 0x02, 0, true, 4097)
	if got := aud.Violations(); got != 1 {
		t.Fatalf("divergent length produced %d violations, want 1", got)
	}
	// Non-strict observations never violate, whatever their length.
	aud.Observe("in", 0x07, 0, false, 1)
	aud.Observe("in", 0x07, 0, false, 999)
	if got := aud.Violations(); got != 1 {
		t.Fatalf("non-strict frames changed the count to %d, want 1", got)
	}
}

func TestShapeAuditorFailsHealthz(t *testing.T) {
	reg := NewRegistry()
	aud := reg.ShapeAuditor("server")
	mux := AdminMux(reg)

	get := func() (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get(); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("clean auditor: /healthz = %d %q, want 200 ok", code, body)
	}

	aud.Observe("in", 0x02, 0, true, 100)
	aud.Observe("in", 0x02, 0, true, 101)
	code, body := get()
	if code != 503 {
		t.Fatalf("/healthz after violation = %d, want 503", code)
	}
	if !strings.Contains(body, "shape_server") {
		t.Fatalf("/healthz body %q must name the failing shape_server check", body)
	}
	if !strings.Contains(body, "0x02") {
		t.Fatalf("/healthz body %q must describe the violating message type", body)
	}

	// The violations counter is exported for scraping.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `ortoa_obliviousness_shape_violations_total{proc="server"} 1`) {
		t.Fatalf("/metrics missing violations counter:\n%s", sb.String())
	}
}

func TestShapeAuditorConcurrent(t *testing.T) {
	reg := NewRegistry()
	aud := reg.ShapeAuditor("proxy")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				aud.Observe("in", byte(w%3), uint64(w%2), true, 512+(w%3)*16)
				aud.Observe("out", byte(w%3), uint64(w%2), false, i)
			}
		}(w)
	}
	wg.Wait()
	// Each (dir=in, msgType, class) combination above has exactly one
	// length, so concurrency alone must not manufacture violations.
	if got := aud.Violations(); got != 0 {
		t.Fatalf("concurrent uniform observations produced %d violations", got)
	}
}
