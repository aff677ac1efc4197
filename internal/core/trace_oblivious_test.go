package core

import (
	"testing"

	"ortoa/internal/obs"
)

// TestObliviousnessLBLTraced re-runs the adversary's-view transcript
// comparison with distributed tracing armed on every hop. The trace
// ref is a fixed-size header field, so the observed
// (type, reqLen, respLen) multisets must stay identical between pure
// reads and pure writes — tracing must not change the transcript
// shape. The shape auditors are shared across BOTH runs, so they also
// pin that a read-run frame and a write-run frame of the same class
// have the same length, not just that each run is internally uniform.
func TestObliviousnessLBLTraced(t *testing.T) {
	const valueSize = 8
	const ops = 12
	reg := obs.NewRegistry()
	reg.Tracer("server", 1<<12)
	reg.Tracer("proxy", 1<<12)
	serverAud := reg.ShapeAuditor("server")
	proxyAud := reg.ShapeAuditor("proxy")
	mkTraced := func(t *testing.T) (*rig, Accessor) {
		r, acc := lblObsRig(LBLPointPermute, valueSize)(t)
		r.server.Instrument(reg, "server")
		r.client.Instrument(reg, "proxy")
		acc.(*LBLProxy).Instrument(reg, "proxy")
		return r, acc
	}

	reads := observedRun(t, mkTraced, OpRead, valueSize, ops)
	writes := observedRun(t, mkTraced, OpWrite, valueSize, ops)
	assertIdenticalViews(t, reads, writes)

	if vp, vs := proxyAud.Violations(), serverAud.Violations(); vp != 0 || vs != 0 {
		t.Fatalf("shape auditor: proxy=%d server=%d violations across read+write runs, want 0/0", vp, vs)
	}

	// Tracing was genuinely on: both processes recorded spans, joined
	// into cross-process trees by ids that crossed the wire.
	serverByTrace := map[uint64]bool{}
	have := map[string]bool{}
	for _, rec := range reg.TraceRecords() {
		have[rec.Name] = true
		if rec.Process == "server" {
			serverByTrace[rec.TraceID] = true
		}
	}
	for _, want := range []string{"lbl_access", "counter_acquire", "table_build", "rpc",
		"label_recover", "transport_attempt", "server_handle", "server_decrypt"} {
		if !have[want] {
			t.Fatalf("no %q span recorded; tracing was not actually exercised", want)
		}
	}
	joined := 0
	for _, rec := range reg.TraceRecords() {
		if rec.Process == "proxy" && rec.Name == "lbl_access" && serverByTrace[rec.TraceID] {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("no proxy trace id reached the server: span context did not propagate")
	}
}
