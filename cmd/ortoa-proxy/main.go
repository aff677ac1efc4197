// Command ortoa-proxy runs the trusted side of an ORTOA deployment:
// it holds the secret keys (and, for LBL, the per-key access
// counters), connects to the untrusted ortoa-server, and serves
// oblivious accesses to end-user clients (§2.1's proxy model).
//
// Usage:
//
//	ortoa-proxy -server localhost:7001 -listen :7002 \
//	    -protocol lbl -value-size 160 -keys keys.json \
//	    -load-synthetic 10000
//
// Keys are created on first run and reused afterwards.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ortoa"
	"ortoa/internal/core"
	"ortoa/internal/obs"
	"ortoa/internal/workload"
)

func main() {
	log.SetPrefix("ortoa-proxy: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	serverAddr := flag.String("server", "localhost:7001", "ortoa-server address")
	listen := flag.String("listen", ":7002", "address to serve clients on")
	protocol := flag.String("protocol", "lbl", "protocol: lbl, tee, fhe, or 2rtt")
	valueSize := flag.Int("value-size", 160, "fixed value size in bytes")
	keysPath := flag.String("keys", "ortoa-keys.json", "keys file (created if missing)")
	variant := flag.String("lbl-variant", "point-permute", "LBL variant: basic, space-opt, point-permute")
	conns := flag.Int("conns", 32, "connection pool size to the server")
	callTimeout := flag.Duration("call-timeout", 0, "per-attempt deadline for server RPCs, e.g. 500ms (0 disables)")
	retries := flag.Int("retries", 0, "total attempts per server RPC; at-most-once retries (<2 disables)")
	loadSynthetic := flag.Int("load-synthetic", 0, "bulk-load N synthetic records at startup")
	statePath := flag.String("state", "", "LBL access-counter state file (restored at startup, saved on shutdown)")
	stateEvery := flag.Duration("state-interval", 0, "also save -state crash-atomically this often, bounding the counter-loss window (0 disables)")
	aggWindow := flag.Duration("agg-window", 0, "coalesce concurrent client accesses into shared batch round trips, waiting at most this long per window (LBL; 0 disables)")
	aggMaxBatch := flag.Int("agg-max-batch", 0, "dispatch an aggregation window early at this many accesses (0 = default 64)")
	aggMaxPending := flag.Int("agg-max-pending", 0, "reject client accesses beyond this many admitted-but-unanswered (0 = default 4x max-batch)")
	aggBrownoutPending := flag.Int("agg-brownout-pending", 0, "pending depth at which aggregation browns out: bigger batches, quarter-length windows (0 = default half of agg-max-pending)")
	aggBrownoutMaxBatch := flag.Int("agg-brownout-max-batch", 0, "aggregation window size trigger under brownout (0 = default 2x agg-max-batch)")
	maxInflight := flag.Int("max-inflight", 0, "handle at most this many client requests concurrently, shedding overload with constant-size busy frames (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 0, "client requests waiting for an inflight slot before overflow is shed, served newest-first (needs -max-inflight)")
	shedDeadline := flag.Bool("shed-deadline", true, "drop client requests whose deadline budget expired before doing any work (needs -max-inflight)")
	retryAfter := flag.Duration("retry-after", 0, "backoff hint carried in busy rejections (0 = default 25ms)")
	reconcileScan := flag.Int("reconcile-scan", 0, "probe up to N counter steps to reconcile after crash desync, e.g. when resuming from a stale -state snapshot (LBL; 0 disables)")
	streamChunk := flag.Int("stream-chunk", 0, "send LBL rounds whose tables exceed this many bytes as several request frames of at most this many table bytes each, written as they are sealed to pipeline garbling against the WAN (the server still buffers one table per key whose table spans frames); 0 sends every round as one frame")
	peers := flag.String("peers", "", "comma-separated names of every proxy in a multi-proxy deployment, e.g. host1:7002,host2:7002 (LBL; claims this proxy's ring share of counter ranges and enables adoption on fence; requires -self)")
	self := flag.String("self", "", "this proxy's name within -peers (clients' -proxies member names must match for first-try owner routing)")
	ranges := flag.String("ranges", "", "comma-separated counter range ids to claim explicitly instead of ring placement, e.g. 0,5,9 (LBL; enables adoption on fence)")
	fheDegree := flag.Int("fhe-degree", 512, "BFV ring degree (fhe)")
	fheBits := flag.Int("fhe-modulus-bits", 370, "BFV modulus bits (fhe)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz, /slowlog, /trace, and /debug/pprof on this address (e.g. :7092)")
	traceBuffer := flag.Int("trace-buffer", 4096, "retain this many finished trace spans for /trace; 0 disables tracing (needs -metrics-addr)")
	flag.Parse()

	keys, err := ortoa.LoadOrGenerateKeys(*keysPath)
	if err != nil {
		log.Fatal(err)
	}

	multiProxy := *peers != "" || *ranges != ""
	if multiProxy && ortoa.Protocol(*protocol) != ortoa.ProtocolLBL {
		log.Fatal("-peers/-ranges (multi-proxy range ownership) require -protocol lbl")
	}
	if *peers != "" && *self == "" {
		log.Fatal("-peers requires -self (this proxy's name within the peer list)")
	}
	if multiProxy && *reconcileScan <= 0 {
		// An adopter rebases a dead peer's counters through the
		// reconcile spiral; without a scan bound adoption would fence
		// the ex-owner but never recover the counter positions.
		*reconcileScan = 4096
		log.Printf("multi-proxy deployment: defaulting -reconcile-scan to %d", *reconcileScan)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		admin, err := obs.ServeAdmin(*metricsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer admin.Close()
		log.Printf("metrics on http://%s/metrics", admin.Addr)
	}

	client, err := ortoa.NewClient(ortoa.ClientConfig{
		Protocol:      ortoa.Protocol(*protocol),
		ValueSize:     *valueSize,
		Keys:          keys,
		LBLVariant:    ortoa.LBLVariant(*variant),
		Conns:         *conns,
		CallTimeout:   *callTimeout,
		RetryAttempts: *retries,
		ReconcileScan: *reconcileScan,
		AutoAdopt:     multiProxy,
		StreamChunk:   *streamChunk,
		FHE:           ortoa.FHEOptions{RingDegree: *fheDegree, ModulusBits: *fheBits},
		Metrics:       reg,
		TraceBuffer:   *traceBuffer,
	}, func() (net.Conn, error) { return net.Dial("tcp", *serverAddr) })
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if ortoa.Protocol(*protocol) == ortoa.ProtocolTEE {
		if err := client.Provision(); err != nil {
			log.Fatalf("attesting server enclave: %v", err)
		}
		log.Print("enclave attested and provisioned")
	}
	if ortoa.Protocol(*protocol) == ortoa.ProtocolFHE && len(keys.FHESecretKey) == 0 {
		keys.FHESecretKey = client.FHESecretKey()
		if err := keys.Save(*keysPath); err != nil {
			log.Fatalf("persisting FHE secret key: %v", err)
		}
	}

	if *statePath != "" {
		if _, err := os.Stat(*statePath); err == nil {
			if err := client.LoadState(*statePath); err != nil {
				log.Fatalf("restoring counter state: %v", err)
			}
			log.Printf("restored LBL counters from %s", *statePath)
		}
	}

	// Claim range ownership after any counter restore: from the claim
	// on, every in-flight or retried round from a previous owner of
	// these ranges is fenced at the server before it can touch a
	// record, and this proxy's stale counter positions rebase through
	// -reconcile-scan on first access.
	switch {
	case *ranges != "":
		var rids []uint32
		for _, f := range strings.Split(*ranges, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			id, err := strconv.ParseUint(f, 10, 32)
			if err != nil || id >= ortoa.NumCounterRanges {
				log.Fatalf("-ranges: %q is not a range id in [0,%d)", f, ortoa.NumCounterRanges)
			}
			rids = append(rids, uint32(id))
		}
		if err := client.ClaimRanges(rids); err != nil {
			log.Fatalf("claiming ranges: %v", err)
		}
		log.Printf("claimed %d explicit counter ranges", len(rids))
	case *peers != "":
		var names []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				names = append(names, p)
			}
		}
		rids, err := client.ClaimOwnedRanges(names, *self)
		if err != nil {
			log.Fatalf("claiming owned ranges: %v", err)
		}
		log.Printf("claimed %d/%d counter ranges as %q (ring of %d proxies)",
			len(rids), ortoa.NumCounterRanges, *self, len(names))
	}

	if *loadSynthetic > 0 {
		data := workload.InitialData(workload.Config{
			NumKeys: *loadSynthetic, ValueSize: *valueSize, Seed: 1,
		})
		if err := client.Load(data); err != nil {
			log.Fatalf("bulk load: %v", err)
		}
		log.Printf("loaded %d synthetic records (keys key-00000000..key-%08d)", *loadSynthetic, *loadSynthetic-1)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("proxying protocol=%s server=%s on %s", *protocol, *serverAddr, l.Addr())
	if *aggWindow > 0 {
		maxBatch := *aggMaxBatch
		if maxBatch <= 0 {
			maxBatch = core.DefaultAggMaxBatch
		}
		log.Printf("aggregating client accesses: window=%s max-batch=%d", *aggWindow, maxBatch)
	}
	if *maxInflight > 0 {
		log.Printf("admission control: max-inflight=%d max-queue=%d shed-deadline=%v", *maxInflight, *maxQueue, *shedDeadline)
	}

	stopSaver := make(chan struct{})
	if *statePath != "" && *stateEvery > 0 {
		// Periodic crash-atomic saves bound the counter state lost to a
		// proxy crash to one interval; -reconcile-scan closes the
		// remaining gap on restart. The ticker is stopped on shutdown;
		// SaveState itself serializes against the final shutdown save.
		ticker := time.NewTicker(*stateEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := client.SaveState(*statePath); err != nil {
						log.Printf("saving counter state: %v", err)
					}
				case <-stopSaver:
					return
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() {
		serveErr <- client.ServeProxyOptions(l, ortoa.ProxyServeOptions{
			AggWindow:           *aggWindow,
			AggMaxBatch:         *aggMaxBatch,
			AggMaxPending:       *aggMaxPending,
			AggBrownoutPending:  *aggBrownoutPending,
			AggBrownoutMaxBatch: *aggBrownoutMaxBatch,
			Admission: ortoa.AdmissionOptions{
				MaxInflight:  *maxInflight,
				MaxQueue:     *maxQueue,
				ShedDeadline: *shedDeadline,
				RetryAfter:   *retryAfter,
			},
		})
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s; draining", s)
	case err := <-serveErr:
		log.Printf("proxy stopped: %v", err)
	}
	close(stopSaver)

	// Graceful shutdown: Close stops the listener, drains accepted
	// client connections (in-flight accesses complete) and flushes
	// aggregation windows before releasing the server connections —
	// only then is the final counter snapshot taken, so it reflects
	// every acknowledged access. Returning (not os.Exit) lets the
	// deferred admin.Close run.
	if err := client.Close(); err != nil {
		log.Printf("closing client: %v", err)
	}
	if *statePath != "" {
		if err := client.SaveState(*statePath); err != nil {
			log.Printf("saving counter state: %v", err)
		} else {
			log.Printf("saved LBL counters to %s", *statePath)
		}
	}
}
