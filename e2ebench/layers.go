package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sort"
	"time"

	"ortoa"
	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
)

// A layerCost is one standalone layer call, timed on one goroutine:
// the median wall time per call over batches, and process CPU per call.
type layerCost struct {
	wallNs, cpuNs float64
}

// sink keeps kernel results live.
var sink byte

// timeLayer calls op in batches of n for about budget, after one
// untimed batch. A non-nil prepare runs before each batch, untimed.
func timeLayer(budget time.Duration, n int, prepare func() error, op func(i int) error) (layerCost, error) {
	var per []float64
	var cpu time.Duration
	calls := 0
	start := time.Now()
	for batch := 0; batch < 4 || time.Since(start) < budget; batch++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return layerCost{}, err
			}
		}
		c, t := processCPU(), time.Now()
		for i := 0; i < n; i++ {
			if err := op(calls + i); err != nil {
				return layerCost{}, err
			}
		}
		if batch > 0 {
			per = append(per, float64(time.Since(t))/float64(n))
			cpu += processCPU() - c
		}
		calls += n
	}
	sort.Float64s(per)
	return layerCost{wallNs: per[len(per)/2], cpuNs: float64(cpu) / float64(calls-n)}, nil
}

// layerCosts holds every standalone layer measurement of a traced run.
type layerCosts struct {
	prfLabel, seal, open, tableBuild, recover, kvGet, kvUpdate, echo layerCost
}

// lblGeometry is the LBL table geometry at w's value size.
func lblGeometry(w workload) (cfg core.LBLConfig, entryLen int) {
	cfg = core.LBLConfig{ValueSize: w.valueSize, Mode: core.LBLPointPermute}
	return cfg, cfg.TableBytes() / (cfg.Groups() << cfg.Mode.Y())
}

// measureLayers times each layer alone. The label-crypto layers run at
// w's value size under LBL point-permute whatever w's protocol; the
// store has w's record count and record size, and the echo carries
// w's request and response payload sizes.
func measureLayers(w workload, seed uint64, budget time.Duration, recordBytes, reqPayload, respPayload int) (layerCosts, error) {
	var lc layerCosts
	var err error
	cfg, entryLen := lblGeometry(w)
	groups := cfg.Groups()

	gen := prf.NewRandom().LabelGen(keyName(1))
	if lc.prfLabel, err = timeLayer(budget, 4096, nil, func(i int) error {
		out := gen.Label(i%groups, uint8(i&3), uint64(i>>2))
		sink ^= out[0]
		return nil
	}); err != nil {
		return lc, err
	}

	sealer := secretbox.NewLabelSealer()
	label := make([]byte, 16)
	plain := make([]byte, entryLen-secretbox.LabelOverhead)
	sealed := make([]byte, entryLen)
	if lc.seal, err = timeLayer(budget, 4096, nil, func(i int) error {
		label[0] = byte(i)
		return sealer.SealInto(sealed, label, plain)
	}); err != nil {
		return lc, err
	}
	opener, err := sealer.Opener(label)
	if err != nil {
		return lc, err
	}
	if lc.open, err = timeLayer(budget, 4096, nil, func(int) error {
		return opener.OpenInto(plain, sealed)
	}); err != nil {
		return lc, fmt.Errorf("open: %w", err)
	}

	tb, err := core.NewTableBuildKernel(cfg, 1)
	if err != nil {
		return lc, err
	}
	if lc.tableBuild, err = timeLayer(budget, 8, nil, func(int) error { return tb.Op() }); err != nil {
		return lc, err
	}

	// The recover kernel's tables are built outside the timed batches.
	rk, err := core.NewRecoverKernel(cfg, 16, 1)
	if err != nil {
		return lc, err
	}
	if lc.recover, err = timeLayer(budget, rk.Window(), rk.Prepare, func(int) error { return rk.Op() }); err != nil {
		return lc, err
	}

	if lc.kvGet, lc.kvUpdate, err = measureStore(w, seed, budget, recordBytes); err != nil {
		return lc, err
	}
	if lc.echo, err = measureEcho(budget, reqPayload, respPayload); err != nil {
		return lc, err
	}
	return lc, nil
}

// measureStore times Get and in-place Update on a store holding w.keys
// records of recordBytes (16-byte key plus value), keys drawn as the
// workload draws them.
func measureStore(w workload, seed uint64, budget time.Duration, recordBytes int) (get, update layerCost, err error) {
	store := kvstore.New()
	rng := rand.New(rand.NewPCG(seed, 0x5704E))
	keys := make([]string, w.keys)
	for i := range keys {
		k := make([]byte, 16)
		for j := range k {
			k[j] = byte(rng.Uint32())
		}
		keys[i] = string(k)
		if err := store.Put(keys[i], make([]byte, max(recordBytes-16, 1))); err != nil {
			return get, update, err
		}
	}
	z := newZipf(w.keys, zipfS)
	order := make([]int, 1<<14)
	for i := range order {
		order[i] = z.draw(rng)
	}
	if get, err = timeLayer(budget, 1024, nil, func(i int) error {
		v, err := store.Get(keys[order[i&(len(order)-1)]])
		if err == nil {
			sink ^= v[0]
		}
		return err
	}); err != nil {
		return get, update, err
	}
	update, err = timeLayer(budget, 1024, nil, func(i int) error {
		return store.Update(keys[order[i&(len(order)-1)]], func(old []byte) ([]byte, error) {
			old[0]++
			return old, nil
		})
	})
	return get, update, err
}

// echoType is an otherwise unused message type for the echo server.
const echoType = 0x7E

// measureEcho times transport.Client.Call over TCP loopback against a
// handler that answers every request of reqPayload bytes with
// respPayload bytes.
func measureEcho(budget time.Duration, reqPayload, respPayload int) (layerCost, error) {
	srv := transport.NewServer()
	resp := make([]byte, respPayload)
	srv.Handle(echoType, func(_ context.Context, p []byte) ([]byte, error) {
		if len(p) != reqPayload {
			return nil, fmt.Errorf("echo: got %d bytes, want %d", len(p), reqPayload)
		}
		return resp, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return layerCost{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // ErrClosed after Close
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := transport.Dial(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, 1)
	if err != nil {
		return layerCost{}, err
	}
	defer c.Close()
	req := make([]byte, reqPayload)
	return timeLayer(budget, 64, nil, func(int) error {
		out, err := c.Call(echoType, req)
		if err == nil && len(out) != respPayload {
			err = io.ErrShortBuffer
		}
		return err
	})
}

// An attribRow is one layer's share of an access: its standalone CPU
// cost times how often one access incurs it.
type attribRow struct {
	name   string
	costUs float64
	count  float64
	summed bool // false for rows already inside a summed row
}

// attribution lays the layer costs against one access of w.
// tablesPerOp is the LBL tables sent per access and callsPerOp the
// proxy→server calls per access, both counted in the traced run.
func attribution(w workload, lc layerCosts, tablesPerOp, callsPerOp float64) []attribRow {
	cfg, _ := lblGeometry(w)
	entries := float64(cfg.Groups() << cfg.Mode.Y())
	// The server does one store Update per access; under LBL it is
	// already inside the recover kernel.
	updates := 1.0
	if w.protocol == ortoa.ProtocolLBL {
		updates = 0
	}
	us := func(c layerCost) float64 { return c.cpuNs / 1e3 }
	return []attribRow{
		{"core.table_build", us(lc.tableBuild), tablesPerOp, true},
		{"  crypto.seal (in table_build)", us(lc.seal), tablesPerOp * entries, false},
		{"  crypto.prf_label (in table_build)", us(lc.prfLabel), tablesPerOp * entries * 2, false},
		{"core.recover", us(lc.recover), tablesPerOp, true},
		{"  crypto.open (in recover)", us(lc.open), tablesPerOp * float64(cfg.Groups()), false},
		{"transport.echo", us(lc.echo), callsPerOp, true},
		{"kvstore.update", us(lc.kvUpdate), updates, true},
	}
}

func predictedUs(rows []attribRow) float64 {
	sum := 0.0
	for _, r := range rows {
		if r.summed {
			sum += r.costUs * r.count
		}
	}
	return sum
}

func printAttribution(out io.Writer, w workload, rows []attribRow, measuredUs float64) {
	fmt.Fprintf(out, "attribution %s (CPU per access)\n", w.name)
	fmt.Fprintf(out, "  %-38s %12s %10s %12s\n", "layer", "cost_us", "count/op", "us/op")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-38s %12.4f %10.2f %12.2f\n", r.name, r.costUs, r.count, r.costUs*r.count)
	}
	pred := predictedUs(rows)
	fmt.Fprintf(out, "  %-38s %12s %10s %12.2f\n", "attrib.predicted_cpu_us", "", "", pred)
	fmt.Fprintf(out, "  %-38s %12s %10s %12.2f\n", "cpu_us_per_op (traced run)", "", "", measuredUs)
	if measuredUs > 0 {
		fmt.Fprintf(out, "  %-38s %12s %10s %12.3f\n", "attrib.unexplained_frac", "", "", 1-pred/measuredUs)
	}
}
