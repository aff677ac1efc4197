// Command e2ebench is the repository's end-to-end benchmark. It runs
// one named workload against the public ortoa API over TCP loopback,
// with server and proxy in this process, checks every value it reads,
// and prints its metrics as the last line of standard output:
//
//	e2ebench --workload lbl-160B --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// instrumentation on the connections. With --trace 1 it instead taps
// the proxy→server connections to split sequential accesses into stage
// spans, counts per-access work, times each layer alone at the
// workload's geometry, prints an attribution of CPU per access to
// those layers, writes the spans to --out, and reports the per-layer
// metrics. BENCHMARK.json at the repository root names every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ortoa"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string  // directory for the span dump and scratch state
	keys     int     // overrides the workload's key count when positive
	rate     float64 // overrides an open-loop workload's rate when positive
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "lbl-160B", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.out, "out", ".", "directory for the span dump")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// A plain run stands the deployment up at least minSetups times and
// until minSetupTime has gone into it, at most maxSetups times; setup_s
// is the median of the calm ones, during which the host stole no more
// CPU time than during the median set-up. Cheap set-ups thus get enough
// repeats for a steady median, and the 109 MB LBL store is built about
// five times.
const (
	minSetups    = 3
	maxSetups    = 50
	minSetupTime = 5 * time.Second
)

func run(o options, out io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.keys > 0 {
		w.keys = o.keys
	}
	if o.rate > 0 && w.rate > 0 {
		w.rate = o.rate
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	host0 := readHostCPU()
	var res result
	if o.trace {
		res, err = runTraced(w, o, out)
	} else {
		res, err = runPlain(w, o, out)
	}
	if err != nil {
		return result{}, err
	}
	host := map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"cpu_model": cpuModel(), "cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"steal_frac":  readHostCPU().stealSince(host0),
		"failed_frac": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	b, _ := json.Marshal(host)
	fmt.Fprintf(out, "host %s\n", b)
	return res, nil
}

// runPlain stands the deployment up repeatedly, then measures the
// workload's load for o.seconds after a warm-up, with nothing tapped.
func runPlain(w workload, o options, out io.Writer) (result, error) {
	keys := ortoa.GenerateKeys()
	data := initialData(w, o.seed)
	var setups, steal []float64
	var d *deployment
	total := 0.0
	for len(setups) < minSetups || (total < minSetupTime.Seconds() && len(setups) < maxSetups) {
		if d != nil {
			d.close()
			debug.FreeOSMemory()
		}
		var took time.Duration
		var err error
		host := readHostCPU()
		if d, took, err = deploy(w, keys, data, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
		steal = append(steal, readHostCPU().stealSince(host))
		total += took.Seconds()
	}
	var calmSetups []float64
	for i, keep := range calm(steal) {
		if keep {
			calmSetups = append(calmSetups, setups[i])
		}
	}
	sort.Float64s(calmSetups)
	g, err := newLoadGen(w, o.seed, o.out)
	if err != nil {
		d.close()
		return result{}, err
	}
	defer g.close()
	dur := time.Duration(o.seconds * float64(time.Second))
	win := g.run(d.px, nil, min(dur/5, 2*time.Second), dur)
	rss := peakRSSMiB()
	storage := float64(d.srv.srv.StorageBytes()) / float64(w.keys*w.valueSize)
	d.close()
	st, err := g.stats(win)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "window: the calm %.1f of %.1f s (steal %.3f, %.3f overall) timed %d reads and %d writes\n",
		st.seconds, dur.Seconds(), st.calmSteal, st.steal, len(st.readMs), len(st.writeMs))
	res, err := g.result(out)
	if err != nil {
		return result{}, err
	}
	res.Metrics = map[string]metric{
		"setup_s":                      {quantile(calmSetups, 0.5), "s"},
		"ops_per_s":                    {float64(st.done) / st.seconds, "1/s"},
		"read_p50_ms":                  {quantile(st.readMs, 0.5), "ms"},
		"write_p50_ms":                 {quantile(st.writeMs, 0.5), "ms"},
		"cpu_us_per_op":                {st.cpuUs, "us"},
		"alloc_bytes_per_op":           {st.allocB, "B"},
		"allocs_per_op":                {st.allocs, "count"},
		"req_bytes_per_op":             {st.reqB, "B"},
		"resp_bytes_per_op":            {st.respB, "B"},
		"storage_bytes_per_value_byte": {storage, "ratio"},
		"peak_rss_mb":                  {rss, "MiB"},
	}
	return res, nil
}

// result checks the history and counts what was attempted and failed,
// printing each distinct error to out.
func (g *loadGen) result(out io.Writer) (result, error) {
	ops, err := g.hist.all()
	if err != nil {
		return result{}, err
	}
	g.errMu.Lock()
	for e, n := range g.errs {
		fmt.Fprintf(out, "failed %d accesses: %s\n", n, e)
	}
	g.errMu.Unlock()
	res := result{Correct: checkHistory(ops) == 0, Attempted: len(ops)}
	for _, op := range ops {
		if !op.ok {
			res.Failed++
		}
	}
	return res, nil
}

// runTraced measures the per-layer metrics. Of o.seconds it spends 0.4
// on the workload's own load with the connections tapped (0.3
// measured), 0.15 each on that load with ClientConfig.Metrics set and
// unset (0.1 measured), 0.2 on sequential traced accesses and 0.3 on
// standalone layer calls.
func runTraced(w workload, o options, out io.Writer) (result, error) {
	keys := ortoa.GenerateKeys()
	cfg, _ := lblGeometry(w)
	tap := &wireTap{tableBytes: cfg.TableBytes()}
	d, _, err := deploy(w, keys, initialData(w, o.seed), tap)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	sec := func(f float64) time.Duration { return time.Duration(f * o.seconds * float64(time.Second)) }
	g, err := newLoadGen(w, o.seed, o.out)
	if err != nil {
		return result{}, err
	}
	defer g.close()
	load, err := g.stats(g.run(d.px, tap, sec(0.1), sec(0.3)))
	if err != nil {
		return result{}, err
	}
	// ClientConfig.Metrics set, then unset, on the same key schedule.
	var withMetrics, without windowStats
	for _, on := range []bool{true, false} {
		if d.px, err = handOver(d.px, d.srv, keys, tap, on, o.out); err != nil {
			return result{}, err
		}
		st, err := g.stats(g.run(d.px, tap, sec(0.05), sec(0.1)))
		if err != nil {
			return result{}, err
		}
		if on {
			withMetrics = st
		} else {
			without = st
		}
	}

	spans := g.traceAccesses(d.px, tap, sec(0.2))
	recordBytes := int(d.srv.srv.StorageBytes()) / w.keys
	d.close()
	d = nil
	debug.FreeOSMemory()

	// The echo carries the mean request and response payload of a call.
	calls := max(load.callsPerOp, 1e-9)
	reqPayload := int(load.reqB/calls) - frameHeaderLen
	respPayload := int(load.respB/calls) - frameHeaderLen
	lc, err := measureLayers(w, o.seed, sec(0.3)/8, recordBytes, reqPayload, respPayload)
	if err != nil {
		return result{}, err
	}
	rows := attribution(w, lc, load.tablesPerOp, load.callsPerOp)
	printAttribution(out, w, rows, load.cpuUs)
	predicted := predictedUs(rows)

	dump := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := dumpSpans(dump, spans.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d accesses traced, %d unmatched, the first %d written to %s\n",
		len(spans.rootUs), spans.unmatched, min(len(spans.rootUs), maxDumpedAccesses), dump)
	stages, unaccounted := spans.medianUs()
	same := spans.sameShape()
	if !same {
		fmt.Fprintf(out, "check failed: reads put %v and writes %v (request, response) bytes on the proxy→server connection\n", spans.readShapes, spans.writeShapes)
	}

	res, err := g.result(out)
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Correct && same
	entries := float64(cfg.Groups() << cfg.Mode.Y())
	res.Metrics = map[string]metric{
		"core.proxy_build_us":          {stages[0], "us"},
		"transport.request_us":         {stages[1], "us"},
		"core.server_us":               {stages[2], "us"},
		"transport.response_us":        {stages[3], "us"},
		"core.proxy_recover_us":        {stages[4], "us"},
		"span.unaccounted_frac":        {unaccounted, "ratio"},
		"crypto.prf_label_ns":          {lc.prfLabel.wallNs, "ns"},
		"crypto.seal_ns":               {lc.seal.wallNs, "ns"},
		"crypto.open_ns":               {lc.open.wallNs, "ns"},
		"core.table_build_us":          {lc.tableBuild.wallNs / 1e3, "us"},
		"core.recover_us":              {lc.recover.wallNs / 1e3, "us"},
		"kvstore.get_ns":               {lc.kvGet.wallNs, "ns"},
		"kvstore.update_ns":            {lc.kvUpdate.wallNs, "ns"},
		"transport.echo_us":            {lc.echo.wallNs / 1e3, "us"},
		"core.entries_per_op":          {load.tablesPerOp * entries, "count"},
		"transport.calls_per_op":       {load.callsPerOp, "count"},
		"transport.write_calls_per_op": {load.writeCallsPerOp, "count"},
		"core.agg_ops_per_call":        {1 / calls, "count"},
		"loadgen.late_ms":              {load.lateMs, "ms"},
		"runtime.gc_cpu_frac":          {load.gcFrac, "ratio"},
		"host.steal_frac":              {load.steal, "ratio"},
		"obs.metrics_overhead_frac":    {withMetrics.cpuUs/without.cpuUs - 1, "ratio"},
		"tail.read_p99_ms":             {quantile(load.readMs, 0.99), "ms"},
		"tail.write_p99_ms":            {quantile(load.writeMs, 0.99), "ms"},
		"attrib.predicted_cpu_us":      {predicted, "us"},
		"attrib.cpu_us_per_op":         {load.cpuUs, "us"},
		"attrib.unexplained_frac":      {1 - predicted/load.cpuUs, "ratio"},
	}
	return res, nil
}
