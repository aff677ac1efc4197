package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
	"ortoa/internal/workload"
)

// aggWindowLen is the coalescing window the aggregated path waits per
// batch — the latency each access risks paying to share a round trip.
const aggWindowLen = 2 * time.Millisecond

// gatedAccessor bounds concurrent proxy→server accesses at the shared
// slot budget, modeling the bounded in-flight window every real
// proxy→server path runs under (connection-level flow control, server
// admission limits); netsim's transport would otherwise pipeline
// unboundedly.
type gatedAccessor struct {
	slots chan struct{}
	next  core.Accessor
}

func (g gatedAccessor) Access(op core.Op, key string, newValue []byte) ([]byte, core.AccessStats, error) {
	g.slots <- struct{}{}
	defer func() { <-g.slots }()
	return g.next.Access(op, key, newValue)
}

// gatedBatchAccessor is the same budget applied to the aggregated
// path: one whole batch round trip occupies one slot, exactly like
// one single access does.
type gatedBatchAccessor struct {
	slots chan struct{}
	next  core.BatchAccessor
}

func (g gatedBatchAccessor) AccessBatchResults(ctx context.Context, ops []core.BatchOp) ([]core.BatchResult, core.AccessStats) {
	g.slots <- struct{}{}
	defer func() { <-g.slots }()
	return g.next.AccessBatchResults(ctx, ops)
}

// aggRig is one end-to-end deployment for the aggregate experiment:
// end-user sessions → proxy front end (netsim loopback) → LBL proxy →
// server (netsim WAN RTT), with the proxy→server path gated at
// fallbackWindow concurrent round trips for both compared paths.
type aggRig struct {
	serverTS *transport.Server
	proxyTS  *transport.Server
	rpc      *transport.Client
	users    []*transport.Client
	agg      *core.Aggregator
	sessions []*core.RemoteAccessor
}

func newAggRig(sessions, valueSize int, aggregated bool, reg *obs.Registry) (*aggRig, error) {
	r := &aggRig{}
	fail := func(err error) (*aggRig, error) {
		r.Close()
		return nil, err
	}

	// Untrusted server over an RTT-only WAN link. Like BatchPipeline,
	// the link models propagation delay without per-connection
	// bandwidth: netsim meters bandwidth per connection, so the
	// many-connection singles path would enjoy aggregate bandwidth no
	// shared uplink provides, hiding the round-trip effect under a
	// simulation artifact.
	store := kvstore.New()
	r.serverTS = transport.NewServer()
	r.serverTS.Instrument(reg, "server")
	core.RegisterLoader(r.serverTS, store)
	core.NewLBLServer(store).Register(r.serverTS)
	serverLn := netsim.Listen(netsim.Link{RTT: netsim.London.RTT})
	go r.serverTS.Serve(serverLn)

	rpc, err := transport.Dial(serverLn.Dial, fallbackWindow)
	if err != nil {
		return fail(err)
	}
	r.rpc = rpc
	rpc.Instrument(reg, "proxy")
	proxy, err := core.NewLBLProxy(core.LBLConfig{ValueSize: valueSize, Mode: core.LBLPointPermute}, prf.NewRandom(), rpc)
	if err != nil {
		return fail(err)
	}

	records := make([]core.KV, sessions)
	for i := range records {
		value := make([]byte, valueSize)
		ek, rec, err := proxy.BuildRecord(workload.Key(i), value)
		if err != nil {
			return fail(err)
		}
		records[i] = core.KV{Key: ek, Record: rec}
	}
	if err := core.BulkLoad(rpc, records); err != nil {
		return fail(err)
	}

	// Both paths spend the same fallbackWindow-slot budget on server
	// round trips; aggregation differs only in how many accesses one
	// slot carries.
	gate := make(chan struct{}, fallbackWindow)
	var accessor core.Accessor
	if aggregated {
		r.agg = core.NewAggregator(core.AggregatorConfig{
			Window:   aggWindowLen,
			MaxBatch: sessions,
		}, gatedBatchAccessor{slots: gate, next: proxy})
		accessor = r.agg
	} else {
		accessor = gatedAccessor{slots: gate, next: proxy}
	}

	// Proxy front end and one connection per end-user session, as in
	// the §2.1 deployment: every session is an independent client that
	// issues one access at a time.
	r.proxyTS = transport.NewServer()
	core.RegisterProxyService(r.proxyTS, accessor)
	userLn := netsim.Listen(netsim.Loopback)
	go r.proxyTS.Serve(userLn)
	for s := 0; s < sessions; s++ {
		uc, err := transport.Dial(userLn.Dial, 1)
		if err != nil {
			return fail(err)
		}
		r.users = append(r.users, uc)
		r.sessions = append(r.sessions, core.NewRemoteAccessor(uc))
	}
	return r, nil
}

func (r *aggRig) Close() {
	for _, uc := range r.users {
		uc.Close()
	}
	if r.proxyTS != nil {
		r.proxyTS.Close()
	}
	if r.agg != nil {
		r.agg.Close()
	}
	if r.rpc != nil {
		r.rpc.Close()
	}
	if r.serverTS != nil {
		r.serverTS.Close()
	}
}

// Aggregate measures the cross-session aggregation front end: N
// concurrent end-user sessions each looping single-key accesses
// through the proxy, with and without the time/size coalescing window
// in front of the LBL batch path. Throughput, server round trips per
// access, and the realized coalesce ratio all come from the
// components' own counters.
func Aggregate(opt Options) (*Table, error) {
	t := &Table{
		ID:    "aggregate",
		Title: "Cross-session aggregation window vs per-request proxying (London RTT, 160B values)",
		Columns: []string{"sessions", "path", "tput(ops/s)", "speedup",
			"server-rpcs/op", "coalesce"},
	}
	sessionCounts := []int{16, 64}
	rounds := 6
	if opt.Quick {
		sessionCounts = []int{64}
		rounds = 3
	}
	if opt.Concurrency > 0 {
		sessionCounts = []int{opt.Concurrency}
	}

	run := func(sessions int, aggregated bool) (tput, rpcsPerOp, coalesce float64, err error) {
		// A fresh registry per rig: the shape auditor pins frame lengths
		// per deployment, and every window size must stay byte-identical
		// within its class across the whole run.
		reg := obs.NewRegistry()
		r, err := newAggRig(sessions, paperValueSize, aggregated, reg)
		if err != nil {
			return 0, 0, 0, err
		}
		defer r.Close()

		before := r.rpc.Stats().Calls
		start := make(chan struct{})
		var wg sync.WaitGroup
		errc := make(chan error, 1)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				key := workload.Key(s)
				for i := 0; i < rounds; i++ {
					if _, _, err := r.sessions[s].Access(core.OpRead, key, nil); err != nil {
						select {
						case errc <- fmt.Errorf("session %d: %w", s, err):
						default:
						}
						return
					}
				}
			}(s)
		}
		begin := time.Now()
		close(start)
		wg.Wait()
		elapsed := time.Since(begin)
		select {
		case err := <-errc:
			return 0, 0, 0, err
		default:
		}

		ops := sessions * rounds
		rpcs := r.rpc.Stats().Calls - before
		tput = float64(ops) / elapsed.Seconds()
		rpcsPerOp = float64(rpcs) / float64(ops)
		if r.agg != nil {
			coalesce = r.agg.Stats().CoalesceRatio()
		}
		if vp, vs := shapeViolations(reg); vp+vs != 0 {
			return 0, 0, 0, fmt.Errorf("obliviousness shape violations: proxy=%d server=%d", vp, vs)
		}
		return tput, rpcsPerOp, coalesce, nil
	}

	for _, sessions := range sessionCounts {
		baseTput, baseRPCs, _, err := run(sessions, false)
		if err != nil {
			return nil, fmt.Errorf("unaggregated %d sessions: %w", sessions, err)
		}
		aggTput, aggRPCs, coalesce, err := run(sessions, true)
		if err != nil {
			return nil, fmt.Errorf("aggregated %d sessions: %w", sessions, err)
		}
		t.AddRow(fmt.Sprint(sessions), "per-request", fmtTput(baseTput), "1.00x",
			fmt.Sprintf("%.2f", baseRPCs), "-")
		t.AddRow(fmt.Sprint(sessions), "aggregated", fmtTput(aggTput),
			fmt.Sprintf("%.2fx", aggTput/baseTput),
			fmt.Sprintf("%.2f", aggRPCs), fmt.Sprintf("%.1f", coalesce))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("both paths share a %d-slot proxy→server round-trip budget; aggregation packs a whole window into one slot", fallbackWindow),
		fmt.Sprintf("aggregation window: %s or %s accesses, whichever closes first", aggWindowLen, "MaxBatch=sessions"),
		"RTT-only link (no per-connection bandwidth), as in the batch experiment: netsim meters bandwidth per connection, which would gift the per-request path unshared aggregate bandwidth",
		"sessions gain from aggregation once they outnumber the round-trip budget; at sessions <= budget the window only adds its wait",
		"shape auditor: 0 length violations — every batch frame of a given window size was byte-identical, aggregated or not")
	return t, nil
}
