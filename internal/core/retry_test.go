package core

import (
	"fmt"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// faultedLBLRig builds an LBL proxy/server pair whose link runs plan,
// with a retrying client. The plan's PRNG is the only randomness the
// fault layer consumes, and the workload below is sequential over one
// connection, so a fixed seed injects an identical fault sequence into
// every run.
func faultedLBLRig(t *testing.T, plan *netsim.FaultPlan, reg *obs.Registry) (*rig, *LBLProxy) {
	t.Helper()
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Link{Fault: plan})
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	NewLBLServer(r.store).Register(r.server)
	client, err := transport.DialOptions(l.Dial, transport.Options{
		PoolSize:         1,
		CallTimeout:      60 * time.Millisecond,
		Retry:            transport.RetryPolicy{Attempts: 12, Backoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	client.Instrument(reg, "proxy")
	r.client = client
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 8, Mode: LBLPointPermute}, prf.NewRandom(), client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

// TestObliviousnessLBLUnderRetries checks that the fault-tolerance
// layer does not open an operation-type side channel: with a
// deterministic fault plan blackholing responses — so calls time out
// and retry — a run of pure reads and a run of pure writes must still
// produce identical adversary views, retries, replays and all. The
// transport retries every call the same way regardless of payload, and
// dedup replays have the same shape as first responses; this test is
// the end-to-end evidence.
func TestObliviousnessLBLUnderRetries(t *testing.T) {
	const valueSize = 8
	const ops = 16
	mkPlan := func() *netsim.FaultPlan {
		// Blackholes only: resets and stalls perturb timing but not the
		// adversary's view; blackholed responses are what force the
		// retry/replay path this test is about. One seed, two runs.
		return &netsim.FaultPlan{Seed: 11, BlackholeProb: 0.25, MaxFaults: 12}
	}
	var regs []*obs.Registry
	mkRig := func(t *testing.T) (*rig, Accessor) {
		reg := obs.NewRegistry()
		regs = append(regs, reg)
		r, proxy := faultedLBLRig(t, mkPlan(), reg)
		data := map[string][]byte{}
		for i := 0; i < 4; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
		}
		loadData(t, r, proxy, data)
		return r, proxy
	}

	reads := observedRun(t, mkRig, OpRead, valueSize, ops)
	writes := observedRun(t, mkRig, OpWrite, valueSize, ops)
	assertIdenticalViews(t, reads, writes)

	// The runs must actually have exercised the retry path, or the test
	// proves nothing; the fixed seed makes this deterministic.
	for i, reg := range regs {
		if v := reg.Counter("ortoa_transport_client_retries_total", "").Value(); v < 1 {
			t.Fatalf("run %d retried %d times; the fault plan injected nothing (adjust seed/probability)", i, v)
		}
	}
}
