package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/workload"
)

// Fig3c reproduces Figure 3c: the latency breakdown of LBL-ORTOA —
// computation, the constant link RTT, and the large-message
// communication overhead `o` — against the baseline's total latency.
// Beside the breakdown modeled from the link it reports the one the
// instrumented, traced proxy measured: the mean of each core.LBLStages
// stage histogram. At every value size the run must pass three gates
// (auditStages): the stage means sum to the end-to-end mean within 10%,
// the slowest complete cross-process trace's stage spans sum to its
// root span within 1%, and the shape auditor records no violation with
// tracing on.
func Fig3c(opt Options) (*Table, error) {
	cols := []string{"value(B)", "total(ms)", "rtt(ms)", "comm-ovhd(ms)", "compute(ms)"}
	for _, name := range core.LBLStages.Stages {
		cols = append(cols, name+"(ms)")
	}
	t := &Table{
		ID:      "fig3c",
		Title:   "LBL-ORTOA latency breakdown vs value size (Oregon link): modeled, then measured per stage",
		Columns: append(cols, "2rtt-total(ms)", "LBL wins (c>p+o)"),
	}
	link := netsim.Oregon
	for _, size := range fig3bSizes(opt) {
		wl := workload.Config{NumKeys: opt.keys(), ValueSize: size, WriteFraction: 0.5, Seed: 7}
		reg := obs.NewRegistry()
		lbl, err := Measure(Config{System: SystemLBL, Link: link, ValueSize: size, LBLMode: core.LBLPointPermute,
			Metrics: reg, TraceBuffer: 1 << 15}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, fmt.Errorf("lbl @%dB: %w", size, err)
		}
		base, err := Measure(Config{System: SystemBaseline, Link: link, ValueSize: size}, wl, opt.conc(), opt.ops())
		if err != nil {
			return nil, fmt.Errorf("baseline @%dB: %w", size, err)
		}
		means, note, err := auditStages(reg, size == paperValueSize)
		if err != nil {
			return nil, fmt.Errorf("lbl @%dB: %w", size, err)
		}
		total := lbl.Latency.Mean
		rtt := link.RTT
		commOvhd := link.TransferTime(int(lbl.BytesSentOp)) + link.TransferTime(int(lbl.BytesRecvOp))
		compute := max(total-rtt-commOvhd, 0)
		// §6.3.2's rule: one extra round (c) vs processing + overhead.
		wins := float64(rtt) > float64(compute+commOvhd)
		row := []string{fmt.Sprint(size), fmtMS(total), fmtMS(rtt), fmtMS(commOvhd), fmtMS(compute)}
		for _, m := range means {
			row = append(row, fmtMSf(int64(m)))
		}
		t.AddRow(append(row, fmtMS(base.Latency.Mean), fmt.Sprint(wins))...)
		t.Notes = append(t.Notes, fmt.Sprintf("%dB: %s", size, note))
	}
	t.Notes = append(t.Notes,
		"paper: communication overhead (not compute) dominates LBL's growth with ℓ",
		"decision rule (§6.3.2): choose LBL-ORTOA when c > p + o",
		"stage columns are the proxy's ortoa_lbl_stage_seconds means; total(ms) is the harness-side mean, which adds cluster routing above the proxy",
		"span context crossed the simulated WAN in the frame header's fixed-size trace field: identical frame lengths traced or not")
	return t, nil
}

// auditStages checks one instrumented, traced LBL run against the three
// Fig 3c gates and returns the stage histogram means with a note on the
// checks; spans lists the audited trace's spans in the note.
func auditStages(reg *obs.Registry, spans bool) ([]time.Duration, string, error) {
	names := core.LBLStages.Stages
	means := make([]time.Duration, len(names))
	var sum time.Duration
	for i, name := range names {
		means[i] = reg.Histogram(`ortoa_lbl_stage_seconds{stage="`+name+`"}`, "").Mean()
		sum += means[i]
	}
	e2e := reg.Histogram("ortoa_lbl_access_seconds", "").Mean()
	if e2e == 0 {
		return nil, "", fmt.Errorf("harness: the proxy recorded no accesses")
	}
	meanDev := 100 * (float64(sum) - float64(e2e)) / float64(e2e)
	if meanDev > 10 || meanDev < -10 {
		return nil, "", fmt.Errorf("harness: stage means sum to %+.1f%% of the end-to-end mean (acceptance: within 10%%)", meanDev)
	}

	trees, complete := completeTraces(reg.TraceRecords())
	if len(trees) == 0 {
		return nil, "", fmt.Errorf("harness: no complete cross-process trace among %d recorded traces", complete)
	}
	// The slowest complete trace: its stage spans are the same clock
	// readings as the histograms, so they must reproduce its root span —
	// a larger gap means a stage went untimed (acceptance: within 1%).
	best := trees[0]
	for _, tr := range trees[1:] {
		if tr.root.Duration > best.root.Duration {
			best = tr
		}
	}
	var spanSum time.Duration
	for _, sp := range best.spans {
		for _, name := range names {
			if sp.Name == name && sp.ParentID == best.root.SpanID {
				spanSum += sp.Duration
			}
		}
	}
	spanDev := 100 * (float64(spanSum) - float64(best.root.Duration)) / float64(best.root.Duration)
	if spanDev > 1 || spanDev < -1 {
		return nil, "", fmt.Errorf("harness: trace %016x: stage spans sum to %+.2f%% of the root span (acceptance: within 1%%)", best.root.TraceID, spanDev)
	}
	if vp, vs := shapeViolations(reg); vp+vs != 0 {
		return nil, "", fmt.Errorf("harness: obliviousness shape violations while tracing: proxy=%d server=%d", vp, vs)
	}
	note := fmt.Sprintf("stage means sum %s ms vs end-to-end %s ms (%+.1f%%, gate 10%%); slowest of %d complete traces %016x: stage spans %s ms vs root %s ms (%+.2f%%, gate 1%%); 0 shape violations with tracing on",
		fmtMSf(int64(sum)), fmtMSf(int64(e2e)), meanDev, len(trees), best.root.TraceID,
		fmtMSf(int64(spanSum)), fmtMSf(int64(best.root.Duration)), spanDev)
	if spans {
		// Children start at their parent's reading: order by start, the
		// root first.
		sort.SliceStable(best.spans, func(a, b int) bool {
			sa, sb := best.spans[a], best.spans[b]
			return sa.Start.Before(sb.Start) || sa.Start.Equal(sb.Start) && sa.ParentID == 0 && sb.ParentID != 0
		})
		parts := make([]string, len(best.spans))
		for i, sp := range best.spans {
			parts[i] = fmt.Sprintf("%s/%s=%s", sp.Process, sp.Name, fmtMSf(int64(sp.Duration)))
		}
		note += "; its spans (ms): " + strings.Join(parts, " ")
	}
	return means, note, nil
}

// traceRequiredSpans is what a complete cross-process trace of one
// access must contain: the proxy's root and stage spans, the
// transport's attempt span, and the server's handler and decrypt
// spans (the two processes meet at rpc → transport_attempt →
// server_handle).
var traceRequiredSpans = append([]string{core.LBLStages.Root, "transport_attempt", "server_handle", "server_decrypt"},
	core.LBLStages.Stages...)

// A traceTree is one access's spans across both processes.
type traceTree struct {
	root  trace.SpanRecord
	spans []trace.SpanRecord
}

// completeTraces groups records by trace and returns the traces rooted
// at an lbl_access span that contain every required span, with the
// number of traces recorded (incomplete ones lost a side to a ring
// buffer's eviction).
func completeTraces(recs []trace.SpanRecord) ([]traceTree, int) {
	byTrace := make(map[uint64][]trace.SpanRecord)
	for _, rec := range recs {
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	var out []traceTree
	for _, spans := range byTrace {
		have := make(map[string]bool, len(spans))
		tr := traceTree{spans: spans}
		for _, sp := range spans {
			have[sp.Name] = true
			if sp.ParentID == 0 && sp.Name == core.LBLStages.Root {
				tr.root = sp
			}
		}
		ok := tr.root.SpanID != 0
		for _, name := range traceRequiredSpans {
			ok = ok && have[name]
		}
		if ok {
			out = append(out, tr)
		}
	}
	return out, len(byTrace)
}

// shapeViolations reads both processes' obliviousness shape-violation
// counters from reg (get-or-create: zero if never armed).
func shapeViolations(reg *obs.Registry) (proxy, server int64) {
	return reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="proxy"}`, "").Value(),
		reg.Counter(`ortoa_obliviousness_shape_violations_total{proc="server"}`, "").Value()
}

// fmtMSf renders nanoseconds as milliseconds with two decimals.
func fmtMSf(ns int64) string { return fmt.Sprintf("%.2f", float64(ns)/1e6) }
