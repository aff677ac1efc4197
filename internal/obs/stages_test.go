package obs

import (
	"context"
	"errors"
	"testing"
	"time"

	"ortoa/internal/obs/trace"
)

var testStages = StageSet{Root: "access", Stages: []string{"build", "rpc"}}

// TestStageRecorderLaps checks the recorder's stage accounting: each
// Mark closes the running stage into its histogram, Idle time lands in
// no stage but in the total, and a nil timer records nothing.
func TestStageRecorderLaps(t *testing.T) {
	reg := NewRegistry()
	timer := testStages.Timer(reg, "proxy", "stage_seconds", "")
	timer.Total = reg.Histogram("access_seconds", "")
	build := reg.Histogram(`stage_seconds{stage="build"}`, "")
	rpc := reg.Histogram(`stage_seconds{stage="rpc"}`, "")

	rec, _ := timer.Start(context.Background(), 0)
	time.Sleep(2 * time.Millisecond)
	rec.Mark(Idle)
	time.Sleep(2 * time.Millisecond)
	rec.Mark(1)
	rec.End(nil, nil)

	if build.Count() != 1 || build.Sum() < time.Millisecond {
		t.Fatalf("build stage: count %d sum %v, want 1 sample >= 1ms", build.Count(), build.Sum())
	}
	if rpc.Count() != 1 {
		t.Fatalf("rpc stage count = %d, want 1", rpc.Count())
	}
	total := timer.Total.Sum()
	if timer.Total.Count() != 1 || total < build.Sum()+rpc.Sum()+time.Millisecond {
		t.Fatalf("total %v must include the idle gap beyond the stages (%v + %v)", total, build.Sum(), rpc.Sum())
	}

	var off *StageTimer
	rec, _ = off.Start(context.Background(), 0)
	rec.Mark(1)
	rec.End(nil, nil)
	var none *Recorder
	none.Mark(1)
	if build.Count() != 1 || rpc.Count() != 1 || timer.Total.Count() != 1 {
		t.Fatal("an uninstrumented recorder recorded samples")
	}
}

// TestStageRecorderOneReadingPerBoundary pins the time-once rule: with
// a tracer attached, every stage span lasts exactly what its histogram
// observed, the root span exactly the total, and the slow-log entry
// carries the same stage durations.
func TestStageRecorderOneReadingPerBoundary(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("proxy", 64)
	timer := testStages.Timer(reg, "proxy", "stage_seconds", "")
	timer.Total = reg.Histogram("access_seconds", "")
	timer.Slow = reg.SlowLog("access", 4)

	rec, ctx := timer.Start(context.Background(), 0)
	if trace.FromContext(ctx) == nil {
		t.Fatal("Start must return a context carrying the root span")
	}
	time.Sleep(time.Millisecond)
	rec.Mark(1)
	if trace.FromContext(rec.Context(ctx)) == trace.FromContext(ctx) {
		t.Fatal("Context must carry the running stage's span")
	}
	time.Sleep(time.Millisecond)
	rec.End(nil, func() string { return "ek=00" })

	spans := map[string]trace.SpanRecord{}
	for _, r := range tr.Snapshot() {
		spans[r.Name] = r
	}
	root := spans["access"]
	if root.SpanID == 0 || root.ParentID != 0 {
		t.Fatalf("root span %+v, want a new trace", root)
	}
	for _, name := range testStages.Stages {
		sp := spans[name]
		if sp.ParentID != root.SpanID {
			t.Fatalf("%s span parent %016x, want the root %016x", name, sp.ParentID, root.SpanID)
		}
		if h := reg.Histogram(`stage_seconds{stage="`+name+`"}`, ""); h.Sum() != sp.Duration {
			t.Fatalf("%s: histogram sum %v != span duration %v", name, h.Sum(), sp.Duration)
		}
	}
	if timer.Total.Sum() != root.Duration {
		t.Fatalf("total %v != root span %v", timer.Total.Sum(), root.Duration)
	}
	if spans["build"].Duration+spans["rpc"].Duration != root.Duration {
		t.Fatal("contiguous stages must sum to the root span exactly")
	}
	entries := timer.Slow.Entries()
	if len(entries) != 1 || entries[0].Label != "ek=00" || entries[0].Total != root.Duration {
		t.Fatalf("slow log %+v, want one ek=00 entry of %v", entries, root.Duration)
	}
	for i, st := range entries[0].Stages {
		if st.Name != testStages.Stages[i] || st.D != spans[st.Name].Duration {
			t.Fatalf("slow-log stage %+v, want %s of %v", st, testStages.Stages[i], spans[st.Name].Duration)
		}
	}
}

// TestStageRecorderFailureAndContinues covers the error path (Errors
// counted, no total, no slow-log entry) and a server-side set, which
// traces only requests whose context already carries a span.
func TestStageRecorderFailureAndContinues(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("server", 64)
	timer := testStages.Timer(reg, "server", "", "")
	timer.Total = reg.Histogram("access_seconds", "")
	timer.Errors = reg.Counter("errors_total", "")
	timer.Slow = reg.SlowLog("access", 4)
	rec, _ := timer.Start(context.Background(), 0)
	rec.End(errors.New("boom"), func() string { t.Fatal("label of a failed access"); return "" })
	if timer.Errors.Value() != 1 || timer.Total.Count() != 0 || timer.Slow.Len() != 0 {
		t.Fatalf("failed access: errors %d total %d slow %d, want 1/0/0",
			timer.Errors.Value(), timer.Total.Count(), timer.Slow.Len())
	}

	server := StageSet{Root: "server_handle", Continues: true}
	st := server.Timer(reg, "server", "", "")
	rec, _ = st.Start(context.Background(), Idle)
	rec.End(nil, nil)
	if n := len(tr.Snapshot()); n != 2 {
		t.Fatalf("%d spans after an untraced server request, want only the 2 of the traced failure", n)
	}
	caller := tr.StartRoot("caller")
	rec, _ = st.Start(trace.ContextWith(context.Background(), caller), Idle)
	rec.End(nil, nil)
	var handled bool
	for _, r := range tr.Snapshot() {
		handled = handled || r.Name == "server_handle" && r.ParentID == caller.Context().SpanID
	}
	if !handled {
		t.Fatal("a traced request must record server_handle as the caller's child")
	}
}

// TestStageRecorderAllocationFree: the recorder of an uninstrumented
// component (nil registry, so no tracer) allocates nothing per access;
// an instrumented one without a tracer allocates only the recorder.
func TestStageRecorderAllocationFree(t *testing.T) {
	ctx := context.Background()
	reg := NewRegistry()
	on := testStages.Timer(reg, "proxy", "stage_seconds", "")
	on.Total = reg.Histogram("access_seconds", "")
	for want, timer := range []*StageTimer{testStages.Timer(nil, "proxy", "stage_seconds", ""), on} {
		allocs := testing.AllocsPerRun(1000, func() {
			rec, _ := timer.Start(ctx, 0)
			rec.Mark(1)
			_ = rec.Context(ctx)
			rec.End(nil, nil)
		})
		if allocs != float64(want) {
			t.Fatalf("recorder (instrumented %v) allocates %.1f per access, want %d", timer != nil, allocs, want)
		}
	}
}

// TestRegistryKeysProcesses: tracers and shape auditors are keyed by
// process, tracing stays off until a capacity turns it on, and a
// shadow registry shares both while keeping its metrics apart.
func TestRegistryKeysProcesses(t *testing.T) {
	reg := NewRegistry()
	if reg.Tracer("proxy", 0) != nil {
		t.Fatal("a lookup must not turn tracing on")
	}
	tr := reg.Tracer("proxy", 16)
	if reg.Tracer("proxy", 0) != tr || reg.Tracer("server", 0) != nil {
		t.Fatal("tracers must be keyed by process")
	}
	aud := reg.ShapeAuditor("proxy")
	if reg.ShapeAuditor("proxy") != aud || reg.ShapeAuditor("server") == aud {
		t.Fatal("shape auditors must be keyed by process")
	}
	shadow := reg.Shadow()
	if shadow.Tracer("proxy", 0) != tr || shadow.ShapeAuditor("proxy") != aud {
		t.Fatal("a shadow registry must share tracers and shape auditors")
	}
	shadow.Counter("c_total", "").Inc()
	if reg.Value("c_total") != 0 {
		t.Fatal("a shadow registry's metrics must stay out of the parent")
	}
	if (*Registry)(nil).Shadow() != nil {
		t.Fatal("the shadow of a nil registry must be nil")
	}
}
