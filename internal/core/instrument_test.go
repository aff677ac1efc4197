package core

import (
	"context"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
)

// TestLBLStageTimeOnce pins the one-instrumentation-model rule on a
// one-frame LBL access with metrics and tracing on: each stage's
// histogram and its span come from the same clock readings, so every
// ortoa_lbl_stage_seconds sum equals the duration of the same-named
// span exactly, and ortoa_lbl_access_seconds equals the lbl_access
// root span.
func TestLBLStageTimeOnce(t *testing.T) {
	r, proxy, srv := newLBL(t, LBLPointPermute, 16)
	loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 16)})
	reg := obs.NewRegistry()
	reg.Tracer("proxy", 64)
	reg.Tracer("server", 64)
	proxy.Instrument(reg, "proxy")
	r.client.Instrument(reg, "proxy")
	srv.Instrument(reg, "server")
	r.server.Instrument(reg, "server")

	if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}

	spans := map[string]trace.SpanRecord{}
	for _, rec := range reg.TraceRecords() {
		if _, dup := spans[rec.Name]; dup {
			t.Fatalf("two %q spans for one access", rec.Name)
		}
		spans[rec.Name] = rec
	}
	root, ok := spans[LBLStages.Root]
	if !ok {
		t.Fatalf("no %s span recorded: %v", LBLStages.Root, spans)
	}
	for _, name := range LBLStages.Stages {
		sp, ok := spans[name]
		if !ok || sp.ParentID != root.SpanID {
			t.Fatalf("stage span %q missing or not a child of the root: %+v", name, sp)
		}
		h := reg.Histogram(`ortoa_lbl_stage_seconds{stage="`+name+`"}`, "")
		if h.Count() != 1 || h.Sum() != sp.Duration {
			t.Fatalf("%s: histogram count %d sum %v, span %v: want one sample equal to the span",
				name, h.Count(), h.Sum(), sp.Duration)
		}
	}
	if e2e := reg.Histogram("ortoa_lbl_access_seconds", ""); e2e.Count() != 1 || e2e.Sum() != root.Duration {
		t.Fatalf("ortoa_lbl_access_seconds count %d sum %v, root span %v", e2e.Count(), e2e.Sum(), root.Duration)
	}
	// The server's spans joined the proxy's trace under the rpc stage.
	if h := spans["server_handle"]; h.TraceID != root.TraceID {
		t.Fatalf("server_handle %+v not in the access's trace %016x", h, root.TraceID)
	}
}

// TestInstrumentedMetricNames instruments every protocol side on one
// registry — LBL proxy and server, TEE client and server, FHE client and
// server, an aggregating front end, their transport ends and stores —
// drives an access through each, and checks that every metric DESIGN.md
// §8's table names is exported, plus both processes' obliviousness
// shape-violation series.
func TestInstrumentedMetricNames(t *testing.T) {
	reg := obs.NewRegistry()
	instrumentRig := func(r *rig) {
		r.store.Instrument(reg)
		r.server.Instrument(reg, "server")
		r.client.Instrument(reg, "proxy")
	}

	lr, proxy, lsrv := newLBL(t, LBLPointPermute, 8)
	data := map[string][]byte{"a": make([]byte, 8), "b": make([]byte, 8), "c": make([]byte, 8)}
	loadData(t, lr, proxy, data)
	instrumentRig(lr)
	proxy.Instrument(reg, "proxy")
	lsrv.Instrument(reg, "server")
	agg := NewAggregator(AggregatorConfig{Window: 50 * time.Millisecond, MaxBatch: 2}, proxy)
	t.Cleanup(agg.Close)
	agg.Instrument(reg, "proxy")
	if _, _, err := proxy.Access(OpRead, "a", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, k := range []string{"b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if _, _, err := agg.AccessContext(context.Background(), OpRead, k, nil); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()

	tr, tclient, tsrv := newTEE(t, 8)
	loadData(t, tr, tclient, map[string][]byte{"k": make([]byte, 8)})
	instrumentRig(tr)
	tclient.Instrument(reg, "proxy")
	tsrv.Instrument(reg, "server")
	if _, _, err := tclient.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}

	fr := newRig(t)
	fcfg := fheTestConfig(t)
	fsrv := NewFHEServer(fr.store, fcfg)
	fsrv.Register(fr.server)
	fclient, err := NewFHEClient(fcfg, prf.NewRandom(), fr.client)
	if err != nil {
		t.Fatal(err)
	}
	loadData(t, fr, fclient, map[string][]byte{"k": make([]byte, 8)})
	instrumentRig(fr)
	fclient.Instrument(reg, "proxy")
	fsrv.Instrument(reg, "server")
	if _, _, err := fclient.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	exported := func(pattern string) bool {
		base, labels, _ := strings.Cut(pattern, "{")
		if labels != "" {
			labels = "{" + labels
		}
		prefix := strings.HasSuffix(pattern, "*") || strings.HasSuffix(pattern, "=")
		pattern = strings.TrimSuffix(pattern, "*")
		for _, line := range lines {
			if prefix && (strings.HasPrefix(line, pattern) || strings.HasPrefix(line, base+"_count"+labels)) ||
				strings.HasPrefix(line, pattern+" ") || strings.HasPrefix(line, base+"_count"+labels+" ") {
				return true
			}
		}
		return false
	}
	patterns := designMetricTable(t)
	if len(patterns) < 10 {
		t.Fatalf("parsed only %d metric names from DESIGN.md §8: %v", len(patterns), patterns)
	}
	patterns = append(patterns,
		`ortoa_obliviousness_shape_violations_total{proc="proxy"}`,
		`ortoa_obliviousness_shape_violations_total{proc="server"}`)
	for _, p := range patterns {
		if !exported(p) {
			t.Errorf("metric %s is not exported", p)
		}
	}
}

// designMetricTable returns the metric names of DESIGN.md §8's table:
// `name{stage="a"\|"b"}` expands to one name per label value, and
// `{stage=...}` or a trailing * leaves a prefix.
func designMetricTable(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "## 8. Observability")
	sec, _, _ = strings.Cut(sec, "\n## 9.")
	var out []string
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| `ortoa_") {
			continue
		}
		name := strings.SplitN(line, "`", 3)[1]
		base, labels, ok := strings.Cut(name, "{")
		if !ok {
			out = append(out, name)
			continue
		}
		key, values, _ := strings.Cut(strings.TrimSuffix(labels, "}"), "=")
		if values == "..." {
			out = append(out, base+"{"+key+"=")
			continue
		}
		for _, v := range strings.Split(values, `\|`) {
			out = append(out, base+"{"+key+"="+v+"}")
		}
	}
	return out
}
