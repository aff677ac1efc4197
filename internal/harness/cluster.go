// Package harness deploys in-process ORTOA clusters over simulated WAN
// links and runs the paper's experiments (§6). Each figure/table of
// the evaluation has a runner that produces the same rows/series the
// paper reports; cmd/ortoa-bench and the repository-root benchmarks
// drive them.
package harness

import (
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crashfs"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// System identifies a protocol under test.
type System string

// Systems of the evaluation.
const (
	SystemLBL      System = "LBL-ORTOA"
	SystemTEE      System = "TEE-ORTOA"
	SystemBaseline System = "2RTT"
)

// Config describes one cluster deployment.
type Config struct {
	// System selects the protocol.
	System System
	// Link is the proxy↔server network path (clients are colocated
	// with the proxy, as in the paper's California placement).
	Link netsim.Link
	// ValueSize is the fixed value length in bytes (paper default
	// 160 B).
	ValueSize int
	// Data is the initial database. Every key in it is accessible.
	Data map[string][]byte
	// Shards is the number of proxy/server pairs (Fig 3a); keys are
	// hash-partitioned across them. Zero means 1.
	Shards int
	// LBLMode selects the LBL variant (default point-and-permute, the
	// configuration of the paper's cost analysis).
	LBLMode core.LBLMode
	// EnclaveTransition is the simulated ecall overhead for TEE.
	EnclaveTransition time.Duration
	// ConnsPerShard sizes the proxy→server connection pool. Zero
	// means one per expected concurrent client (set by Run).
	ConnsPerShard int
	// Transport tunes the proxy→server clients' fault tolerance
	// (per-call deadlines, at-most-once retries, reconnect backoff).
	// PoolSize is ignored — ConnsPerShard wins. The zero value keeps
	// the historical behavior: no deadline, no retries.
	Transport transport.Options
	// Metrics, when non-nil, instruments every shard's store,
	// transport, and protocol sides against one shared registry (series
	// aggregate across shards). The stages experiment uses it to read
	// per-stage latency breakdowns. Metrics also arms the obliviousness
	// shape auditors on both sides of every shard's link.
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): proxies and servers retain up to this many
	// finished spans each, and span context crosses the simulated WAN
	// in the frame headers' fixed-size trace field.
	TraceBuffer int
	// Durability, when non-nil, backs every shard store with a
	// crash-faulty filesystem and a WAL under the given fsync policy,
	// enabling Restart (kill-without-flush + recovery). LBL only.
	Durability *DurabilityConfig
	// Proxies, when positive, deploys that many trusted proxies sharing
	// one PRF secret over a single LBL shard, with counter ownership
	// ring-partitioned and epoch-fenced; Cluster.Access then routes
	// through a health-probing core.Router, and KillProxy /
	// RecoverProxy / RestartProxy drive live failover. Requires
	// System == SystemLBL and Shards <= 1.
	Proxies int
	// ProxyLink is the client↔proxy network path in multi-proxy
	// deployments. The zero value is an ideal local link (the paper
	// colocates clients with the trusted proxy).
	ProxyLink netsim.Link
	// ProxyReconcileScan bounds an adopting proxy's counter-rebase
	// probe spiral (multi-proxy only). Zero picks a harness default
	// large enough for every built-in workload.
	ProxyReconcileScan int
	// StreamChunkBytes, when positive, puts every LBL proxy on the
	// chunked-streaming request path (core.LBLConfig.StreamChunkBytes):
	// access tables cross the WAN in sealed chunks of about this many
	// bytes as they are built, overlapping garbling with transmission.
	StreamChunkBytes int
	// Admission, when non-nil, installs deadline-aware admission
	// control on every shard server and (in multi-proxy deployments)
	// every proxy front end: bounded concurrency, LIFO queueing under
	// saturation, constant-size busy rejections. The overload
	// experiment drives a cluster configured this way far past
	// capacity.
	Admission *transport.AdmissionConfig
}

// DurabilityConfig makes shard stores durable and crashable. Each
// shard gets its own crashfs disk seeded with Seed+shard so runs are
// reproducible.
type DurabilityConfig struct {
	// Policy is the WAL fsync policy (kvstore.SyncNever /
	// SyncInterval / SyncGroupCommit).
	Policy kvstore.SyncPolicy
	// SyncInterval is the background fsync cadence for SyncInterval.
	SyncInterval time.Duration
	// CheckpointInterval starts background checkpoints when positive.
	CheckpointInterval time.Duration
	// Seed seeds the per-shard fault PRNGs.
	Seed uint64
	// TornWriteProb is the probability a crash tears the first
	// dropped write mid-buffer.
	TornWriteProb float64
	// ReconcileScan bounds the proxies' counter-reconciliation probe
	// spiral after a crash (0 disables recovery, the §5.3.1 behavior).
	ReconcileScan int
}

// A Cluster is a running deployment: servers, proxies, and the routing
// needed to access any key.
type Cluster struct {
	cfg    Config
	shards []*shard

	// Multi-proxy deployments only (Config.Proxies > 0, proxies.go).
	prf     *prf.PRF // shared proxy secret — all peers derive identical labels
	proxies []*proxyNode
	router  *core.Router
}

type shard struct {
	rpc      *transport.Client
	accessor core.Accessor

	// listener is swapped on Restart; the client pool's dial closure
	// reads it, so reconnects find the reborn server.
	listener atomic.Pointer[netsim.Listener]

	mu       sync.Mutex // guards the restartable fields below
	store    *kvstore.Store
	lblSrv   *core.LBLServer
	srv      *transport.Server
	stopCkpt func()

	// Durable shards only.
	fsys     *crashfs.FS
	stateDir string
	dur      *DurabilityConfig
	link     netsim.Link
	replayed int64 // WAL records replayed across all restarts

	// admission, when non-nil, is reapplied to rebuilt servers on
	// Restart so a recovered shard keeps shedding overload.
	admission *transport.AdmissionConfig
}

// NewCluster builds, loads, and connects a deployment.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.ConnsPerShard <= 0 {
		cfg.ConnsPerShard = 32
	}
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("harness: ValueSize must be positive")
	}
	if cfg.Durability != nil && cfg.System != SystemLBL {
		return nil, fmt.Errorf("harness: Durability requires %s (got %s)", SystemLBL, cfg.System)
	}
	if cfg.Proxies > 0 {
		if cfg.System != SystemLBL {
			return nil, fmt.Errorf("harness: Proxies requires %s (got %s)", SystemLBL, cfg.System)
		}
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("harness: Proxies requires a single shard (got %d)", cfg.Shards)
		}
	}
	c := &Cluster{cfg: cfg}
	if cfg.TraceBuffer > 0 {
		cfg.Metrics.Tracer("server", cfg.TraceBuffer)
		cfg.Metrics.Tracer("proxy", cfg.TraceBuffer)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(cfg, i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	if cfg.Proxies > 0 {
		if err := c.buildProxies(cfg, c.shards[0]); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.load(cfg.Data); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// newShard builds shard idx. Its transport ends, like every shard's
// and proxy's, are instrumented as the "server" and "proxy" processes of
// cfg.Metrics: one deployment, one shape auditor and one tracer per
// side.
func newShard(cfg Config, idx int) (*shard, error) {
	sh := &shard{link: cfg.Link, dur: cfg.Durability, admission: cfg.Admission}
	ok := false
	defer func() {
		if !ok {
			if sh.stopCkpt != nil {
				sh.stopCkpt()
			}
			if sh.rpc != nil {
				sh.rpc.Close()
			}
			if sh.srv != nil {
				sh.srv.Close()
			}
			if sh.store != nil {
				sh.store.DetachWAL() //nolint:errcheck
			}
		}
	}()
	store := kvstore.New()
	if d := cfg.Durability; d != nil {
		// Durable shards skip store instrumentation: restarts replace
		// the store, and re-registering its gauges would double-count.
		sh.fsys = crashfs.New(&crashfs.Plan{Seed: d.Seed + uint64(idx), TornWriteProb: d.TornWriteProb})
		sh.stateDir = "state"
		if err := store.Recover(sh.stateDir, kvstore.DurabilityOptions{
			Policy: d.Policy, SyncInterval: d.SyncInterval, FS: sh.fsys,
		}); err != nil {
			return nil, err
		}
		if d.CheckpointInterval > 0 {
			sh.stopCkpt = store.StartCheckpoints(d.CheckpointInterval)
		}
	} else {
		store.Instrument(cfg.Metrics)
	}
	sh.store = store
	srv := transport.NewServer()
	srv.Instrument(cfg.Metrics, "server")
	if cfg.Admission != nil {
		srv.LimitAdmission(*cfg.Admission)
	}
	listener := netsim.Listen(cfg.Link)
	go srv.Serve(listener) //nolint:errcheck // returns on Close
	sh.srv = srv
	sh.listener.Store(listener)

	topts := cfg.Transport
	topts.PoolSize = cfg.ConnsPerShard
	dial := listener.Dial
	if cfg.Durability != nil {
		// Indirect through the listener pointer so reconnects after a
		// Restart reach the replacement server.
		dial = func() (net.Conn, error) { return sh.listener.Load().Dial() }
	}
	client, err := transport.DialOptions(dial, topts)
	if err != nil {
		return nil, err
	}
	client.Instrument(cfg.Metrics, "proxy")
	sh.rpc = client

	switch cfg.System {
	case SystemLBL:
		lblSrv := core.NewLBLServer(store)
		lblSrv.Instrument(cfg.Metrics, "server")
		lblSrv.Register(srv)
		lcfg := core.LBLConfig{ValueSize: cfg.ValueSize, Mode: cfg.LBLMode, StreamChunkBytes: cfg.StreamChunkBytes}
		if cfg.Durability != nil {
			lcfg.ReconcileScan = cfg.Durability.ReconcileScan
		}
		proxy, err := core.NewLBLProxy(lcfg, prf.NewRandom(), client)
		if err != nil {
			return nil, err
		}
		proxy.Instrument(cfg.Metrics, "proxy")
		sh.accessor = proxy
		sh.lblSrv = lblSrv
	case SystemTEE:
		teeSrv, err := core.NewTEEServer(store, cfg.EnclaveTransition)
		if err != nil {
			return nil, err
		}
		teeSrv.Instrument(cfg.Metrics, "server")
		teeSrv.Register(srv)
		teeClient, err := core.NewTEEClient(core.TEEConfig{ValueSize: cfg.ValueSize}, prf.NewRandom(), secretbox.NewRandomKey(), client)
		if err != nil {
			return nil, err
		}
		if err := teeClient.AttestAndProvision(teeSrv.Enclave()); err != nil {
			return nil, err
		}
		teeClient.Instrument(cfg.Metrics, "proxy")
		sh.accessor = teeClient
	case SystemBaseline:
		core.NewBaselineServer(store).Register(srv)
		proxy, err := core.NewBaselineProxy(core.BaselineConfig{ValueSize: cfg.ValueSize}, prf.NewRandom(), secretbox.NewRandomKey(), client)
		if err != nil {
			return nil, err
		}
		sh.accessor = proxy
	default:
		return nil, fmt.Errorf("harness: unknown system %q", cfg.System)
	}
	ok = true
	return sh, nil
}

// Restart crash-kills shard i's server — no flush, open handles die,
// unsynced disk state resolves per the crash plan — then recovers a
// replacement from the surviving WAL + snapshot and points the proxy's
// connection pool at it. In-flight calls fail over the proxy's
// ambiguity/pending machinery; acknowledged writes survive per the
// fsync policy's contract. Requires Config.Durability.
func (c *Cluster) Restart(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("harness: no shard %d", i)
	}
	sh := c.shards[i]
	if sh.fsys == nil {
		return fmt.Errorf("harness: shard %d is not durable (Config.Durability unset)", i)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.stopCkpt != nil {
		sh.stopCkpt()
		sh.stopCkpt = nil
	}
	sh.srv.Close() //nolint:errcheck // best-effort kill
	sh.fsys.Crash()

	store := kvstore.New()
	if err := store.Recover(sh.stateDir, kvstore.DurabilityOptions{
		Policy: sh.dur.Policy, SyncInterval: sh.dur.SyncInterval, FS: sh.fsys,
	}); err != nil {
		return fmt.Errorf("harness: recovering shard %d: %w", i, err)
	}
	sh.replayed += sh.store.WALReplayed() // retire the dead store's count
	lblSrv := core.NewLBLServer(store)
	srv := transport.NewServer()
	// The reborn server keeps feeding the deployment's shape audit and
	// traces; its metrics stay out of the shared registry, where the
	// dead server's callbacks are already registered.
	srv.Instrument(c.cfg.Metrics.Shadow(), "server")
	if sh.admission != nil {
		srv.LimitAdmission(*sh.admission)
	}
	lblSrv.Register(srv)
	listener := netsim.Listen(sh.link)
	go srv.Serve(listener) //nolint:errcheck // returns on Close
	sh.store, sh.lblSrv, sh.srv = store, lblSrv, srv
	sh.listener.Store(listener)
	if sh.dur.CheckpointInterval > 0 {
		sh.stopCkpt = store.StartCheckpoints(sh.dur.CheckpointInterval)
	}
	return nil
}

// WALReplayedTotal sums WAL records replayed during recoveries across
// all shards and restarts.
func (c *Cluster) WALReplayedTotal() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.replayed + sh.store.WALReplayed()
		sh.mu.Unlock()
	}
	return n
}

// DiskStats aggregates crash-fault statistics across the shards'
// simulated disks (zero value for non-durable clusters).
func (c *Cluster) DiskStats() crashfs.Stats {
	var total crashfs.Stats
	for _, sh := range c.shards {
		if sh.fsys == nil {
			continue
		}
		st := sh.fsys.Stats()
		total.WriteErrs += st.WriteErrs
		total.SyncErrs += st.SyncErrs
		total.Crashes += st.Crashes
		total.TornWrites += st.TornWrites
		total.DroppedWrites += st.DroppedWrites
		total.DroppedOps += st.DroppedOps
	}
	return total
}

// Checkpoint forces shard i's store to checkpoint now — durable
// snapshot plus WAL rotation — giving crash tests a known durable
// baseline. Requires Config.Durability.
func (c *Cluster) Checkpoint(i int) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("harness: no shard %d", i)
	}
	sh := c.shards[i]
	if sh.fsys == nil {
		return fmt.Errorf("harness: shard %d is not durable (Config.Durability unset)", i)
	}
	sh.mu.Lock()
	store := sh.store
	sh.mu.Unlock()
	return store.Checkpoint()
}

// Generations returns each shard's committed checkpoint generation.
func (c *Cluster) Generations() []uint64 {
	gens := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		gens[i] = sh.store.Generation()
		sh.mu.Unlock()
	}
	return gens
}

// recordBuilder is implemented by every trusted-side protocol client.
type recordBuilder interface {
	BuildRecord(key string, value []byte) (string, []byte, error)
}

// load encodes and installs the initial database, building records in
// parallel (record building is PRF/AES-heavy for LBL).
func (c *Cluster) load(data map[string][]byte) error {
	type kv struct{ k, v string }
	keys := make([]kv, 0, len(data))
	for k, v := range data {
		keys = append(keys, kv{k, string(v)})
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	chunk := (len(keys) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(keys) {
			hi = len(keys)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []kv) {
			defer wg.Done()
			for _, e := range part {
				sh := c.shardFor(e.k)
				builder, ok := sh.accessor.(recordBuilder)
				if !ok {
					errc <- fmt.Errorf("harness: %T cannot build records", sh.accessor)
					return
				}
				ek, rec, err := builder.BuildRecord(e.k, []byte(e.v))
				if err != nil {
					errc <- fmt.Errorf("harness: building record for %q: %w", e.k, err)
					return
				}
				if err := sh.store.Put(ek, rec); err != nil {
					errc <- fmt.Errorf("harness: loading %q: %w", e.k, err)
					return
				}
			}
		}(keys[lo:hi])
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

func (c *Cluster) shardFor(key string) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// Access routes one operation to the owning shard — or, in a
// multi-proxy deployment, through the failover router to the proxy
// owning the key's counter range.
func (c *Cluster) Access(op core.Op, key string, value []byte) ([]byte, core.AccessStats, error) {
	if c.router != nil {
		return c.router.Access(op, key, value)
	}
	return c.shardFor(key).Access(op, key, value)
}

func (s *shard) Access(op core.Op, key string, value []byte) ([]byte, core.AccessStats, error) {
	return s.accessor.Access(op, key, value)
}

// TrafficStats aggregates proxy→server traffic across shards and, in
// multi-proxy deployments, across the proxy fleet's server pools.
func (c *Cluster) TrafficStats() transport.Stats {
	var total transport.Stats
	add := func(st transport.Stats) {
		total.BytesSent += st.BytesSent
		total.BytesReceived += st.BytesReceived
		total.Calls += st.Calls
	}
	for _, sh := range c.shards {
		add(sh.rpc.Stats())
	}
	for _, pn := range c.proxies {
		pn.mu.Lock()
		add(pn.rpc.Stats())
		pn.mu.Unlock()
	}
	return total
}

// AdmissionStats sums admission-control counters across shard servers
// and live proxy front ends (zero value when Config.Admission is
// unset).
func (c *Cluster) AdmissionStats() transport.AdmissionStats {
	var total transport.AdmissionStats
	add := func(st transport.AdmissionStats) {
		total.QueueDepth += st.QueueDepth
		total.Shed += st.Shed
		total.Expired += st.Expired
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		add(sh.srv.AdmissionStats())
		sh.mu.Unlock()
	}
	for _, pn := range c.proxies {
		pn.mu.Lock()
		if !pn.down {
			add(pn.front.AdmissionStats())
		}
		pn.mu.Unlock()
	}
	return total
}

// ServerBytes returns total server-side storage, for §5.3.1 reporting.
func (c *Cluster) ServerBytes() int64 {
	var n int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.store.Bytes()
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the number of proxy/server pairs.
func (c *Cluster) Shards() int { return len(c.shards) }

// Close tears down all connections, servers, and checkpointers.
func (c *Cluster) Close() {
	c.closeProxies()
	for _, sh := range c.shards {
		if sh == nil {
			continue
		}
		if sh.rpc != nil {
			sh.rpc.Close()
		}
		sh.mu.Lock()
		if sh.stopCkpt != nil {
			sh.stopCkpt()
			sh.stopCkpt = nil
		}
		if sh.srv != nil {
			sh.srv.Close()
		}
		if sh.store != nil {
			sh.store.DetachWAL() //nolint:errcheck // best-effort flush
		}
		sh.mu.Unlock()
	}
}
