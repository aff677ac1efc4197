package obs

import (
	"context"
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures the instrumented hot path: three
// atomic adds, ~10ns on modern hardware — invisible next to a ~100µs
// LBL access.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkHistogramObserveParallel measures contention: concurrent
// observers share cache lines but take no locks.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(time.Microsecond)
		}
	})
}

// BenchmarkDisabledRecorder measures the uninstrumented path a
// protocol pays when metrics are off: one branch per boundary, no clock
// read.
func BenchmarkDisabledRecorder(b *testing.B) {
	var timer *StageTimer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, _ := timer.Start(ctx, 0)
		rec.Mark(1)
		rec.Mark(2)
		rec.Mark(3)
		rec.End(nil, nil)
	}
}

// BenchmarkEnabledRecorder measures the instrumented stage-timing path
// without a tracer: one clock read plus one Observe per boundary.
func BenchmarkEnabledRecorder(b *testing.B) {
	reg := NewRegistry()
	set := StageSet{Root: "access", Stages: []string{"a", "b", "c", "d"}}
	timer := set.Timer(reg, "proxy", "stage_seconds", "")
	timer.Total = reg.Histogram("access_seconds", "")
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, _ := timer.Start(ctx, 0)
		rec.Mark(1)
		rec.Mark(2)
		rec.Mark(3)
		rec.End(nil, nil)
	}
}
