package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// Multi-proxy high-availability deployments (LBL only). With
// Config.Proxies > 0 the cluster runs N trusted proxies sharing one PRF
// secret against a single LBL server. Counter ownership is partitioned
// across the proxies by the consistent-hash ring and enforced by the
// server's epoch fence (core/ring.go, core/epoch.go); clients reach the
// deployment through a core.Router that health-checks the proxies and
// fails over between them. KillProxy / RecoverProxy / RestartProxy
// crash-kill and rebuild individual proxies behind stable listener
// identities, so experiments can drive live ownership handoffs.

// defaultProxyReconcileScan bounds an adopting proxy's counter-rebase
// probe spiral when the experiment does not set one. Adopters start
// from empty counter tables, so the spiral must reach the hottest key's
// true counter; 4096 covers every workload in this harness.
const defaultProxyReconcileScan = 4096

// A proxyNode is one restartable trusted proxy: its own connection pool
// to the shard server, its own LBL proxy state, and a front-end
// transport server clients reach through a stable listener pointer.
type proxyNode struct {
	name string

	// listener is swapped on recovery; the router's dial closure reads
	// it, so a reborn proxy is reachable at the same identity.
	listener atomic.Pointer[netsim.Listener]

	mu    sync.Mutex // guards the restartable fields below
	rpc   *transport.Client
	proxy *core.LBLProxy
	front *transport.Server
	down  bool
}

// buildProxies stands up the proxy fleet and router over the already
// built shard. Called before load(), which then builds records through
// the shared-PRF proxy at c.proxies[0].
func (c *Cluster) buildProxies(cfg Config, sh *shard) error {
	c.prf = prf.NewRandom()
	names := make([]string, cfg.Proxies)
	for i := range names {
		names[i] = fmt.Sprintf("proxy-%d", i)
	}
	ring := core.NewRing(names)
	for i := 0; i < cfg.Proxies; i++ {
		pn := &proxyNode{name: names[i]}
		if err := pn.start(cfg, sh, c.prf, true); err != nil {
			return fmt.Errorf("harness: starting %s: %w", names[i], err)
		}
		// Startup handshake: each proxy claims its ring partition, so
		// every range starts at epoch ≥ 1 with exactly one owner.
		if err := pn.proxy.ClaimOwned(ring, pn.name); err != nil {
			return fmt.Errorf("harness: %s claiming ranges: %w", pn.name, err)
		}
		c.proxies = append(c.proxies, pn)
	}
	// The shard's record builder must use the shared PRF: replace the
	// placeholder accessor before load() runs.
	sh.accessor = c.proxies[0].proxy

	members := make([]core.RouterMember, len(c.proxies))
	for i, pn := range c.proxies {
		pn := pn
		members[i] = core.RouterMember{
			Name: pn.name,
			Dial: func() (net.Conn, error) { return pn.listener.Load().Dial() },
		}
	}
	router, err := core.NewRouter(members, core.RouterOptions{
		Client: transport.Options{
			PoolSize:         4,
			CallTimeout:      cfg.Transport.CallTimeout,
			Retry:            cfg.Transport.Retry,
			ReconnectBackoff: cfg.Transport.ReconnectBackoff,
		},
		ProbeInterval: 25 * time.Millisecond,
		Metrics:       cfg.Metrics,
	})
	if err != nil {
		return err
	}
	c.router = router
	return nil
}

// start builds (or rebuilds) the node's server client, proxy state, and
// front end. A rebuilt node starts with empty counters and no claimed
// ranges: ownership is re-acquired on demand through the epoch fence
// (AutoAdopt), exactly like a production proxy restarted from nothing.
// instrument is false on recovery: the node then registers its metrics
// in a shadow of cfg.Metrics — handles with per-instance callbacks would
// double-register (the restarted-store precedent in newShard) — while
// still feeding the fleet's shape audit and traces.
func (pn *proxyNode) start(cfg Config, sh *shard, f *prf.PRF, instrument bool) error {
	reg := cfg.Metrics
	if !instrument {
		reg = reg.Shadow()
	}
	topts := cfg.Transport
	topts.PoolSize = cfg.ConnsPerShard
	dial := func() (net.Conn, error) { return sh.listener.Load().Dial() }
	client, err := transport.DialOptions(dial, topts)
	if err != nil {
		return err
	}
	client.Instrument(reg, "proxy")

	scan := cfg.ProxyReconcileScan
	if scan <= 0 {
		scan = defaultProxyReconcileScan
	}
	proxy, err := core.NewLBLProxy(core.LBLConfig{
		ValueSize:        cfg.ValueSize,
		Mode:             cfg.LBLMode,
		ReconcileScan:    scan,
		AutoAdopt:        true,
		StreamChunkBytes: cfg.StreamChunkBytes,
	}, f, client)
	if err != nil {
		client.Close()
		return err
	}
	proxy.Instrument(reg, "proxy")

	// The front end feeds the proxies' shape audit; its wire metrics stay
	// out of the shared registry, whose ortoa_transport_server_* series
	// are the shard server's.
	front := transport.NewServer()
	front.Instrument(cfg.Metrics.Shadow(), "proxy")
	if cfg.Admission != nil {
		front.LimitAdmission(*cfg.Admission)
	}
	core.RegisterProxyService(front, proxy)
	l := netsim.Listen(cfg.ProxyLink)
	go front.Serve(l) //nolint:errcheck // returns on Close

	pn.rpc, pn.proxy, pn.front = client, proxy, front
	pn.down = false
	pn.listener.Store(l)
	return nil
}

// proxyNodeAt validates i against the proxy fleet.
func (c *Cluster) proxyNodeAt(i int) (*proxyNode, error) {
	if len(c.proxies) == 0 {
		return nil, fmt.Errorf("harness: cluster has no proxy fleet (Config.Proxies unset)")
	}
	if i < 0 || i >= len(c.proxies) {
		return nil, fmt.Errorf("harness: no proxy %d", i)
	}
	return c.proxies[i], nil
}

// KillProxy crash-kills proxy i: its server connections drop, its
// front end closes (in-flight client rounds fail over at the router),
// and its listener stops answering — counters, claimed ranges, and all.
// The proxy stays dead until RecoverProxy.
func (c *Cluster) KillProxy(i int) error {
	pn, err := c.proxyNodeAt(i)
	if err != nil {
		return err
	}
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if pn.down {
		return fmt.Errorf("harness: proxy %d already down", i)
	}
	// Server pool first: in-flight accesses inside front-end handlers
	// fail fast instead of gracefully draining — this is a crash, not a
	// shutdown.
	pn.rpc.Close()
	pn.front.Close() //nolint:errcheck // best-effort kill
	pn.down = true
	return nil
}

// RecoverProxy rebuilds a killed proxy behind its stable listener
// identity, with empty counters and no owned ranges: like any restarted
// proxy it re-adopts ranges on demand through the epoch fence and
// rebases counters through the reconcile spiral.
func (c *Cluster) RecoverProxy(i int) error {
	pn, err := c.proxyNodeAt(i)
	if err != nil {
		return err
	}
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if !pn.down {
		return fmt.Errorf("harness: proxy %d is not down", i)
	}
	return pn.start(c.cfg, c.shards[0], c.prf, false)
}

// RestartProxy crash-kills proxy i and immediately recovers it — the
// proxy-side analogue of Cluster.Restart for shard servers.
func (c *Cluster) RestartProxy(i int) error {
	if err := c.KillProxy(i); err != nil {
		return err
	}
	return c.RecoverProxy(i)
}

// Proxies returns the proxy fleet size (0 for single-proxy clusters).
func (c *Cluster) Proxies() int { return len(c.proxies) }

// Router returns the client-side proxy router (nil for single-proxy
// clusters).
func (c *Cluster) Router() *core.Router { return c.router }

// closeProxies tears down the router and every proxy node.
func (c *Cluster) closeProxies() {
	if c.router != nil {
		c.router.Close() //nolint:errcheck
	}
	for _, pn := range c.proxies {
		pn.mu.Lock()
		if !pn.down {
			pn.rpc.Close()
			pn.front.Close() //nolint:errcheck
			pn.down = true
		}
		pn.mu.Unlock()
	}
}
