package ortoa

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
	"ortoa/internal/vfs"
)

// Protocol selects an ORTOA variant.
type Protocol string

// Protocols.
const (
	// ProtocolLBL is the label-based protocol (§5), the paper's main
	// contribution. Default.
	ProtocolLBL Protocol = "lbl"
	// ProtocolTEE runs the selector in a simulated enclave (§4).
	ProtocolTEE Protocol = "tee"
	// ProtocolFHE evaluates the selector homomorphically (§3).
	// Impractical beyond a handful of accesses per object, as the
	// paper reports; see the fhe-noise experiment.
	ProtocolFHE Protocol = "fhe"
	// ProtocolBaseline2RTT is the two-round read-then-write baseline.
	ProtocolBaseline2RTT Protocol = "2rtt"
)

// LBLVariant selects the label-protocol optimization level.
type LBLVariant string

// LBL variants (§5.2, §10).
const (
	// LBLPointPermute is y=2 with point-and-permute — the default and
	// the configuration of the paper's cost analysis.
	LBLPointPermute LBLVariant = "point-permute"
	// LBLSpaceOpt is y=2 without decryption bits.
	LBLSpaceOpt LBLVariant = "space-opt"
	// LBLBasic is the unoptimized one-label-per-bit protocol.
	LBLBasic LBLVariant = "basic"
	// LBLWide packs four bits per label (appendix §10.1 generalized):
	// half the server storage of y=2, double the request size.
	LBLWide LBLVariant = "wide"
	// LBLWidePointPermute is y=4 with point-and-permute.
	LBLWidePointPermute LBLVariant = "wide-point-permute"
)

// FsyncPolicy names a WAL durability policy: when journaled mutations
// reach stable storage (DESIGN.md §10).
type FsyncPolicy string

// Fsync policies.
const (
	// FsyncNever leaves fsync scheduling to the caller (SyncWAL,
	// checkpoints): acknowledged writes survive process death but not
	// machine crashes.
	FsyncNever FsyncPolicy = "never"
	// FsyncInterval fsyncs on a background cadence; a crash loses at
	// most one interval of acknowledged writes. Default.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncGroupCommit acknowledges a mutation only after its record
	// is fsynced; concurrent writers share one fsync (durable-on-ack).
	FsyncGroupCommit FsyncPolicy = "group-commit"
)

func (p FsyncPolicy) policy() (kvstore.SyncPolicy, error) {
	if p == "" {
		return kvstore.SyncInterval, nil
	}
	return kvstore.ParseSyncPolicy(string(p))
}

func (v LBLVariant) mode() (core.LBLMode, error) {
	switch v {
	case LBLPointPermute, "":
		return core.LBLPointPermute, nil
	case LBLSpaceOpt:
		return core.LBLSpaceOpt, nil
	case LBLBasic:
		return core.LBLBasic, nil
	case LBLWide:
		return core.LBLWide, nil
	case LBLWidePointPermute:
		return core.LBLWidePointPermute, nil
	default:
		return 0, fmt.Errorf("ortoa: unknown LBL variant %q", v)
	}
}

// FHEOptions tunes the BFV parameter set; client and server must
// agree.
type FHEOptions struct {
	// RingDegree is N (power of two ≥ 16; default 512). Plaintext
	// capacity is 2(N−1) bytes.
	RingDegree int
	// ModulusBits sizes the ciphertext modulus (default 370). More
	// bits buy more accesses per object before noise failure.
	ModulusBits int
	// RelinBaseBits, when nonzero, enables relinearization: the client
	// provisions an evaluation key at connect time and the server
	// keeps stored ciphertexts at constant size. The per-object access
	// budget is unchanged (noise, not size, is the binding §3.3
	// constraint).
	RelinBaseBits int
}

func (o FHEOptions) params() (fhe.Parameters, error) {
	n := o.RingDegree
	if n == 0 {
		n = 512
	}
	bits := o.ModulusBits
	if bits == 0 {
		bits = 370
	}
	return fhe.NewParameters(n, bits)
}

// AdmissionOptions bounds a server's (or proxy front end's)
// concurrent work with deadline-aware load shedding. Requests beyond
// MaxInflight wait in a bounded queue served newest-first — under
// saturation LIFO preserves goodput where FIFO would age every
// request to its deadline — and requests that cannot be served are
// rejected with a constant-size busy frame (IsBusy) carrying a
// retry-after hint, before any protocol work happens. Rejections are
// shape-audited under the request's own class, so shedding leaks no
// operation types. The zero value disables admission control.
type AdmissionOptions struct {
	// MaxInflight is the number of requests handled concurrently;
	// zero or negative disables admission control entirely.
	MaxInflight int
	// MaxQueue bounds requests waiting for an inflight slot. Zero
	// means no queue: overflow is shed immediately.
	MaxQueue int
	// ShedDeadline, when true, drops queued (and arriving) requests
	// whose propagated deadline budget has already expired — work the
	// caller has abandoned — before spending an inflight slot on them.
	ShedDeadline bool
	// RetryAfter is the backoff hint carried in busy rejections
	// (default 25ms). Clients honor it as a floor on their retry
	// backoff.
	RetryAfter time.Duration
}

func (o AdmissionOptions) config() transport.AdmissionConfig {
	return transport.AdmissionConfig{
		MaxInflight: o.MaxInflight,
		MaxQueue:    o.MaxQueue,
		ShedExpired: o.ShedDeadline,
		RetryAfter:  o.RetryAfter,
	}
}

// ServerConfig configures the untrusted storage server.
type ServerConfig struct {
	// Protocol selects which access handlers to serve. Empty serves
	// LBL.
	Protocol Protocol
	// ValueSize is the store's fixed plaintext value length in bytes.
	ValueSize int
	// FHE tunes BFV parameters (ProtocolFHE only).
	FHE FHEOptions
	// EnclaveTransition simulates per-ecall enclave overhead
	// (ProtocolTEE only).
	EnclaveTransition time.Duration
	// Metrics, when non-nil, instruments the server: transport, store,
	// and protocol handler metrics are registered with it (serve them
	// with ServeMetrics). Nil runs without observability overhead.
	// Metrics also arms the continuous obliviousness shape auditor:
	// every access frame's length is checked online against its class
	// and divergences fail /healthz.
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): the server retains up to this many finished
	// spans for /trace, joining traces whose context arrives in request
	// frame headers. The trace field is part of every frame whether
	// tracing is on or off, so enabling it changes nothing the server's
	// network observer can see.
	TraceBuffer int
	// Admission, when MaxInflight is positive, bounds the server's
	// concurrent work and sheds overload with constant-size busy
	// rejections instead of queueing unboundedly.
	Admission AdmissionOptions
}

// NewMetricsRegistry returns an empty metrics registry to set as
// ServerConfig.Metrics or ClientConfig.Metrics. One registry may be
// shared by several components; same-named series aggregate.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// ServeMetrics serves reg's observability endpoints on addr in the
// background: Prometheus-format /metrics, /healthz, /slowlog, and
// net/http/pprof under /debug/pprof/. The returned server's Addr
// field holds the resolved listen address; Close it to stop serving.
func ServeMetrics(addr string, reg *obs.Registry) (*http.Server, error) {
	return obs.ServeAdmin(addr, reg)
}

// A Server is the untrusted side of a deployment: the record store
// plus the selected protocol's handlers. It learns neither values nor
// operation types.
type Server struct {
	store    *kvstore.Store
	ts       *transport.Server
	stopCkpt func()
}

// NewServer builds a server for cfg.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("ortoa: ServerConfig.ValueSize must be positive")
	}
	s := &Server{store: kvstore.New(), ts: transport.NewServer()}
	if cfg.TraceBuffer > 0 {
		cfg.Metrics.Tracer("server", cfg.TraceBuffer)
	}
	s.store.Instrument(cfg.Metrics)
	s.ts.Instrument(cfg.Metrics, "server")
	s.ts.LimitAdmission(cfg.Admission.config())
	core.RegisterLoader(s.ts, s.store)
	switch cfg.Protocol {
	case ProtocolLBL, "":
		lblSrv := core.NewLBLServer(s.store)
		lblSrv.Instrument(cfg.Metrics, "server")
		lblSrv.Register(s.ts)
	case ProtocolTEE:
		teeSrv, err := core.NewTEEServer(s.store, cfg.EnclaveTransition)
		if err != nil {
			return nil, err
		}
		teeSrv.Instrument(cfg.Metrics, "server")
		teeSrv.Register(s.ts)
	case ProtocolFHE:
		params, err := cfg.FHE.params()
		if err != nil {
			return nil, err
		}
		fheSrv := core.NewFHEServer(s.store, core.FHEConfig{Params: params, ValueSize: cfg.ValueSize})
		fheSrv.Instrument(cfg.Metrics, "server")
		fheSrv.Register(s.ts)
	case ProtocolBaseline2RTT:
		core.NewBaselineServer(s.store).Register(s.ts)
	default:
		return nil, fmt.Errorf("ortoa: unknown protocol %q", cfg.Protocol)
	}
	return s, nil
}

// Serve accepts connections from l until Close. It always returns a
// non-nil error.
func (s *Server) Serve(l net.Listener) error { return s.ts.Serve(l) }

// Records returns the number of stored records.
func (s *Server) Records() int { return s.store.Len() }

// StorageBytes returns the server-side storage footprint (§5.3.1).
func (s *Server) StorageBytes() int64 { return s.store.Bytes() }

// SaveSnapshot persists the (encrypted) store to path.
func (s *Server) SaveSnapshot(path string) error { return s.store.SaveFile(path) }

// LoadSnapshot restores a SaveSnapshot file into the store.
func (s *Server) LoadSnapshot(path string) error { return s.store.LoadFile(path) }

// AttachWAL replays the write-ahead log at path into the store and
// journals every subsequent record mutation, so a crashed server
// restarts with its records intact. Call before Serve. Mutations are
// acknowledged from the OS buffer cache (FsyncNever); use
// AttachWALPolicy or OpenState for a crash-durability guarantee.
func (s *Server) AttachWAL(path string) error { return s.store.AttachWAL(path) }

// AttachWALPolicy is AttachWAL with an explicit fsync policy.
// FsyncInterval fsyncs every syncInterval (default 1s); a crash loses
// at most that window of acknowledged writes. FsyncGroupCommit
// acknowledges a mutation only after its record is fsynced, with
// concurrent writers sharing one fsync — durable-on-ack.
func (s *Server) AttachWALPolicy(path string, fsync FsyncPolicy, syncInterval time.Duration) error {
	policy, err := fsync.policy()
	if err != nil {
		return err
	}
	return s.store.AttachWALOptions(path, kvstore.WALOptions{Policy: policy, Interval: syncInterval})
}

// DurabilityOptions configures OpenState.
type DurabilityOptions struct {
	// Fsync is the WAL fsync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SyncInterval is the FsyncInterval flush cadence (default 1s).
	SyncInterval time.Duration
	// CheckpointInterval, when positive, runs background checkpoints —
	// snapshot + WAL rotation — bounding recovery replay time. The
	// returned stop function from StartCheckpoints is managed by Close.
	CheckpointInterval time.Duration
}

// OpenState recovers the newest consistent checkpoint generation from
// the state directory dir — snapshot plus WAL, with an interrupted
// checkpoint rolled forward — and journals every subsequent mutation
// there. A first run initializes the directory. When
// opts.CheckpointInterval is positive, background checkpoints start
// immediately and stop at Close. Call before Serve; OpenState and
// AttachWAL are mutually exclusive.
func (s *Server) OpenState(dir string, opts DurabilityOptions) error {
	policy, err := opts.Fsync.policy()
	if err != nil {
		return err
	}
	if err := s.store.Recover(dir, kvstore.DurabilityOptions{
		Policy:       policy,
		SyncInterval: opts.SyncInterval,
	}); err != nil {
		return err
	}
	if opts.CheckpointInterval > 0 {
		s.stopCkpt = s.store.StartCheckpoints(opts.CheckpointInterval)
	}
	return nil
}

// Checkpoint snapshots the store and rotates the WAL to a fresh
// generation, retiring the previous pair (OpenState stores only). Safe
// under concurrent traffic.
func (s *Server) Checkpoint() error { return s.store.Checkpoint() }

// Generation returns the committed checkpoint generation (OpenState
// stores; 0 otherwise).
func (s *Server) Generation() uint64 { return s.store.Generation() }

// SyncWAL flushes and fsyncs the write-ahead log.
func (s *Server) SyncWAL() error { return s.store.SyncWAL() }

// CompactWAL rewrites the log to one record per live key. Every ORTOA
// access rewrites a record, so logs grow linearly with traffic;
// periodic compaction bounds restart time.
func (s *Server) CompactWAL() error { return s.store.CompactWAL() }

// DetachWAL flushes, fsyncs, and closes the log.
func (s *Server) DetachWAL() error { return s.store.DetachWAL() }

// Close stops serving and halts background checkpoints.
func (s *Server) Close() error {
	if s.stopCkpt != nil {
		s.stopCkpt()
		s.stopCkpt = nil
	}
	return s.ts.Close()
}

// ClientConfig configures the trusted side.
type ClientConfig struct {
	// Protocol must match the server's. Empty means LBL.
	Protocol Protocol
	// ValueSize is the fixed plaintext value length in bytes; shorter
	// writes are zero-padded by Write.
	ValueSize int
	// Keys are the trusted side's secrets.
	Keys Keys
	// LBLVariant selects the label-protocol optimization (LBL only).
	LBLVariant LBLVariant
	// FHE must match the server's FHE options (FHE only).
	FHE FHEOptions
	// Conns sizes the connection pool to the server (default 4).
	Conns int
	// CallTimeout bounds each RPC attempt to the server; a call against
	// a stalled or unreachable server fails after this long instead of
	// hanging. Zero means no deadline.
	CallTimeout time.Duration
	// RetryAttempts is the total number of attempts per RPC, including
	// the first; values below 2 disable retries. Retries are
	// at-most-once: they reuse the request id, so a request whose
	// response was lost is answered from the server's dedup cache
	// rather than re-executed, and the LBL label schedule stays
	// consistent. Reads and writes retry identically, so the retry
	// pattern leaks no operation types.
	RetryAttempts int
	// ReconcileScan, when positive, lets the proxy recover from
	// counter desynchronization after a crash (LBL only): on a stale
	// rejection it probes up to this many counter steps each way to
	// re-locate the server's position, instead of failing the key
	// forever (§5.3.1). Probes are read-shaped, so recovery traffic
	// leaks no operation types. Useful together with a server running
	// a lossy fsync policy, or when resuming from a stale SaveState
	// snapshot; zero disables.
	ReconcileScan int
	// AutoAdopt, when true, lets this proxy adopt a counter range on
	// demand in a multi-proxy deployment (LBL only): an access fenced
	// by the server's epoch check re-claims the range at a fresh epoch
	// and retries, instead of surfacing the fence to the caller. Set it
	// on every member of a proxy group so survivors absorb a dead
	// peer's ranges; pair with ReconcileScan so adopted counters rebase
	// (the adopter starts from its own, possibly stale, snapshot).
	AutoAdopt bool
	// StreamChunk, when positive, sends each LBL round whose tables
	// exceed this many bytes as several request frames of at most this
	// many table bytes, each written as soon as it is sealed (LBL only):
	// the server trial-decrypts frame by frame while later frames are
	// still being garbled and in flight, pipelining proxy CPU against
	// the WAN, and the proxy's table memory per round drops to one
	// frame. Still one logical request and one response. Zero sends
	// every round as one frame, as does any budget its tables fit in.
	StreamChunk int
	// Metrics, when non-nil, instruments the trusted side: transport
	// and per-stage access metrics are registered with it (serve them
	// with ServeMetrics). Nil runs without observability overhead.
	// Metrics also arms the proxy-side obliviousness shape auditor
	// (see ServerConfig.Metrics).
	Metrics *obs.Registry
	// TraceBuffer, when positive, turns on distributed tracing
	// (requires Metrics): accesses record per-stage span trees, retained
	// for /trace, and their context rides the fixed-size trace field of
	// every request frame so the server's spans join the same trace.
	TraceBuffer int
}

// A Client is the trusted side of a deployment — the proxy (LBL,
// baseline) or a key-holding client (TEE, FHE). It is safe for
// concurrent use; LBL accesses to the same key serialize internally.
type Client struct {
	protocol  Protocol
	valueSize int
	accessor  core.Accessor
	builder   interface {
		BuildRecord(key string, value []byte) (string, []byte, error)
	}
	rpc       *transport.Client
	teeClient *core.TEEClient
	lblProxy  *core.LBLProxy
	fheSecret []byte
	metrics   *obs.Registry

	// directory tracks loaded keys in sorted order, enabling the
	// §8.2-style range reads over primary keys.
	dirMu     sync.RWMutex
	directory []string

	// saveMu serializes SaveState writers: WriteFileAtomic's temporary
	// name is deterministic, so two concurrent saves of one path would
	// race on the same temp file.
	saveMu sync.Mutex

	// proxyMu guards the proxy front ends started by ServeProxy, so
	// Close can stop their listeners, drain accepted end-user
	// connections, and flush aggregation windows.
	proxyMu     sync.Mutex
	proxySrvs   []*transport.Server
	proxyAggs   []*core.Aggregator
	proxyClosed bool
}

// NewClient connects a client using dial (e.g. a net.Dialer bound to
// the server address, or a netsim listener's Dial).
func NewClient(cfg ClientConfig, dial func() (net.Conn, error)) (*Client, error) {
	if cfg.ValueSize <= 0 {
		return nil, fmt.Errorf("ortoa: ClientConfig.ValueSize must be positive")
	}
	if err := cfg.Keys.validate(); err != nil {
		return nil, err
	}
	conns := cfg.Conns
	if conns <= 0 {
		conns = 4
	}
	rpc, err := transport.DialOptions(dial, transport.Options{
		PoolSize:    conns,
		CallTimeout: cfg.CallTimeout,
		Retry:       transport.RetryPolicy{Attempts: cfg.RetryAttempts},
	})
	if err != nil {
		return nil, err
	}
	f, err := prf.New(cfg.Keys.PRFKey)
	if err != nil {
		rpc.Close()
		return nil, err
	}
	c := &Client{protocol: cfg.Protocol, valueSize: cfg.ValueSize, rpc: rpc, metrics: cfg.Metrics}
	if cfg.TraceBuffer > 0 {
		cfg.Metrics.Tracer("proxy", cfg.TraceBuffer)
	}
	rpc.Instrument(cfg.Metrics, "proxy")
	switch cfg.Protocol {
	case ProtocolLBL, "":
		mode, err := cfg.LBLVariant.mode()
		if err != nil {
			rpc.Close()
			return nil, err
		}
		proxy, err := core.NewLBLProxy(core.LBLConfig{ValueSize: cfg.ValueSize, Mode: mode, ReconcileScan: cfg.ReconcileScan, AutoAdopt: cfg.AutoAdopt, StreamChunkBytes: cfg.StreamChunk}, f, rpc)
		if err != nil {
			rpc.Close()
			return nil, err
		}
		proxy.Instrument(cfg.Metrics, "proxy")
		c.accessor, c.builder, c.lblProxy = proxy, proxy, proxy
	case ProtocolTEE:
		teeClient, err := core.NewTEEClient(core.TEEConfig{ValueSize: cfg.ValueSize}, f, cfg.Keys.DataKey, rpc)
		if err != nil {
			rpc.Close()
			return nil, err
		}
		teeClient.Instrument(cfg.Metrics, "proxy")
		c.accessor, c.builder, c.teeClient = teeClient, teeClient, teeClient
	case ProtocolFHE:
		params, err := cfg.FHE.params()
		if err != nil {
			rpc.Close()
			return nil, err
		}
		var sk *fhe.SecretKey
		if len(cfg.Keys.FHESecretKey) > 0 {
			sk, err = params.UnmarshalSecretKey(cfg.Keys.FHESecretKey)
		} else {
			sk, err = params.KeyGen()
		}
		if err != nil {
			rpc.Close()
			return nil, err
		}
		fheClient, err := core.NewFHEClientWithKey(core.FHEConfig{
			Params: params, ValueSize: cfg.ValueSize, RelinBaseBits: cfg.FHE.RelinBaseBits,
		}, f, sk, rpc)
		if err != nil {
			rpc.Close()
			return nil, err
		}
		if cfg.FHE.RelinBaseBits > 0 {
			if err := fheClient.ProvisionRelinKey(); err != nil {
				rpc.Close()
				return nil, fmt.Errorf("ortoa: provisioning relinearization key: %w", err)
			}
		}
		fheClient.Instrument(cfg.Metrics, "proxy")
		c.accessor, c.builder = fheClient, fheClient
		c.fheSecret = sk.Marshal()
	case ProtocolBaseline2RTT:
		proxy, err := core.NewBaselineProxy(core.BaselineConfig{ValueSize: cfg.ValueSize}, f, cfg.Keys.DataKey, rpc)
		if err != nil {
			rpc.Close()
			return nil, err
		}
		c.accessor, c.builder = proxy, proxy
	default:
		rpc.Close()
		return nil, fmt.Errorf("ortoa: unknown protocol %q", cfg.Protocol)
	}
	return c, nil
}

// FHESecretKey returns the serialized BFV secret key in use
// (ProtocolFHE only), so it can be stored in Keys for later sessions.
func (c *Client) FHESecretKey() []byte { return c.fheSecret }

// Provision attests the server's enclave and provisions the data key
// (ProtocolTEE only). Call once before accesses.
func (c *Client) Provision() error {
	if c.teeClient == nil {
		return fmt.Errorf("ortoa: Provision applies only to ProtocolTEE")
	}
	return c.teeClient.AttestAndProvisionRemote()
}

// Load encodes initial records and bulk-loads them into the server —
// the Init procedure of Figure 1. Values shorter than ValueSize are
// zero-padded.
func (c *Client) Load(data map[string][]byte) error {
	records := make([]core.KV, 0, len(data))
	for k, v := range data {
		padded, err := core.PadValue(v, c.valueSize)
		if err != nil {
			return fmt.Errorf("ortoa: value for %q: %w", k, err)
		}
		ek, rec, err := c.builder.BuildRecord(k, padded)
		if err != nil {
			return fmt.Errorf("ortoa: encoding %q: %w", k, err)
		}
		records = append(records, core.KV{Key: ek, Record: rec})
	}
	if err := core.BulkLoad(c.rpc, records); err != nil {
		return err
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	c.addToDirectory(keys)
	return nil
}

func (c *Client) addToDirectory(keys []string) {
	c.dirMu.Lock()
	defer c.dirMu.Unlock()
	merged := append(c.directory, keys...)
	sort.Strings(merged)
	// Deduplicate in place.
	out := merged[:0]
	for i, k := range merged {
		if i == 0 || merged[i-1] != k {
			out = append(out, k)
		}
	}
	c.directory = out
}

// Keys returns the loaded keys in sorted order.
func (c *Client) Keys() []string {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	return append([]string(nil), c.directory...)
}

// Read obliviously fetches the value stored under key. The server
// cannot distinguish this from a Write.
func (c *Client) Read(key string) ([]byte, error) {
	v, _, err := c.accessor.Access(core.OpRead, key, nil)
	return v, err
}

// Write obliviously replaces the value stored under key, zero-padding
// to the store's fixed value size. The server cannot distinguish this
// from a Read.
func (c *Client) Write(key string, value []byte) error {
	padded, err := core.PadValue(value, c.valueSize)
	if err != nil {
		return err
	}
	_, _, err = c.accessor.Access(core.OpWrite, key, padded)
	return err
}

// ValueSize returns the store's fixed value length.
func (c *Client) ValueSize() int { return c.valueSize }

// TrafficStats reports cumulative proxy→server traffic: the
// communication quantities §5.3.2 and §6.3.3 analyze.
func (c *Client) TrafficStats() (bytesSent, bytesReceived, calls int64) {
	st := c.rpc.Stats()
	return st.BytesSent, st.BytesReceived, st.Calls
}

// batchParallelism bounds concurrent requests issued by the
// concurrent-fallback batch and range helpers.
const batchParallelism = 16

// A KVPair is one key/value result of a batch or range read.
type KVPair struct {
	Key   string
	Value []byte
}

// ReadBatch obliviously reads many keys and returns the values in
// input order. Under ProtocolLBL the whole batch is packed into a
// single MsgLBLAccess round trip — one frame out, one frame back —
// amortizing the per-access framing and round-trip overhead (§5.2,
// §6.3); the adversary learns only how many objects were accessed,
// exactly as with the equivalent sequence of single accesses. Other
// protocols fall back to pipelining concurrent single accesses over the
// connection pool.
func (c *Client) ReadBatch(keys []string) ([]KVPair, error) {
	if c.lblProxy != nil {
		ops := make([]core.BatchOp, len(keys))
		for i, key := range keys {
			ops[i] = core.BatchOp{Op: core.OpRead, Key: key}
		}
		values, _, err := c.lblProxy.AccessBatch(ops)
		if err != nil {
			return nil, fmt.Errorf("ortoa: batch read: %w", err)
		}
		out := make([]KVPair, len(keys))
		for i, key := range keys {
			out[i] = KVPair{Key: key, Value: values[i]}
		}
		return out, nil
	}
	return c.readBatchConcurrent(keys)
}

// readBatchConcurrent is the pre-batch-RPC path: one RPC per key,
// pipelined over the connection pool. It remains for the protocols
// without a batch handler and as the baseline the batch benchmarks
// compare against.
func (c *Client) readBatchConcurrent(keys []string) ([]KVPair, error) {
	out := make([]KVPair, len(keys))
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	sem := make(chan struct{}, batchParallelism)
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := c.Read(key)
			if err != nil {
				select {
				case errc <- fmt.Errorf("ortoa: batch read %q: %w", key, err):
				default:
				}
				return
			}
			out[i] = KVPair{Key: key, Value: v}
		}(i, key)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
		return out, nil
	}
}

// WriteBatch obliviously writes many entries. Under ProtocolLBL the
// batch is one MsgLBLAccess round trip, indistinguishable at the
// server from a ReadBatch of the same size; other protocols write
// concurrently, one access per entry.
func (c *Client) WriteBatch(entries map[string][]byte) error {
	if c.lblProxy != nil {
		ops := make([]core.BatchOp, 0, len(entries))
		for key, value := range entries {
			padded, err := core.PadValue(value, c.valueSize)
			if err != nil {
				return fmt.Errorf("ortoa: value for %q: %w", key, err)
			}
			ops = append(ops, core.BatchOp{Op: core.OpWrite, Key: key, Value: padded})
		}
		if _, _, err := c.lblProxy.AccessBatch(ops); err != nil {
			return fmt.Errorf("ortoa: batch write: %w", err)
		}
		return nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	sem := make(chan struct{}, batchParallelism)
	for key, value := range entries {
		wg.Add(1)
		go func(key string, value []byte) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := c.Write(key, value); err != nil {
				select {
				case errc <- fmt.Errorf("ortoa: batch write %q: %w", key, err):
				default:
				}
			}
		}(key, value)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// ReadRange reads up to limit consecutive keys starting at start
// (inclusive), in primary-key order — the §8.2 direction: range
// queries layered over single-object oblivious accesses using the
// trusted side's key directory. It rides ReadBatch, so under
// ProtocolLBL the whole range costs one round trip. The accesses
// themselves remain individually oblivious; the adversary learns only
// that `limit` objects were accessed, as with any multi-get.
func (c *Client) ReadRange(start string, limit int) ([]KVPair, error) {
	if limit <= 0 {
		return nil, nil
	}
	return c.ReadBatch(c.rangeKeys(start, limit))
}

// rangeKeys returns up to limit directory keys at or after start, in
// sorted order — the directory walk ReadRange (and the sharded
// merge) rides on.
func (c *Client) rangeKeys(start string, limit int) []string {
	c.dirMu.RLock()
	defer c.dirMu.RUnlock()
	idx := sort.SearchStrings(c.directory, start)
	end := idx + limit
	if end > len(c.directory) {
		end = len(c.directory)
	}
	return append([]string(nil), c.directory[idx:end]...)
}

// SaveState persists trusted-side protocol state that cannot be
// regenerated from the keys: the LBL access counters (§5.3.1). The
// write is crash-atomic (temp file, fsync, rename, directory fsync):
// a crash mid-save leaves the previous snapshot intact, never a torn
// one. For the stateless protocols SaveState is a no-op, so callers
// can save unconditionally. Counters saved mid-traffic may trail the
// server by the in-flight window; a client resuming from such a
// snapshot needs ClientConfig.ReconcileScan to close the gap.
// Concurrent SaveState calls (for example a periodic saver racing a
// shutdown save) serialize internally.
func (c *Client) SaveState(path string) error {
	if c.lblProxy == nil {
		return nil
	}
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return vfs.WriteFileAtomic(vfs.OS{}, path, c.lblProxy.SaveCounters)
}

// LoadState restores a SaveState file. Call before issuing accesses
// when resuming an LBL deployment against an existing server store.
func (c *Client) LoadState(path string) error {
	if c.lblProxy == nil {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.lblProxy.LoadCounters(f)
}

// ClaimRanges asserts ownership of explicit counter ranges (LBL
// multi-proxy deployments): the server bumps each range to a fresh
// epoch, fencing every in-flight or retried round from the previous
// owner before it can touch a record. Range ids live in
// [0, NumCounterRanges). Returns an error for non-LBL protocols.
func (c *Client) ClaimRanges(rangeIDs []uint32) error {
	if c.lblProxy == nil {
		return fmt.Errorf("ortoa: range ownership requires ProtocolLBL")
	}
	return c.lblProxy.ClaimRanges(rangeIDs)
}

// ClaimOwnedRanges claims the counter ranges the deployment's
// consistent-hash ring assigns to this proxy: peers is the full list
// of proxy names (every member must use the identical list, in any
// order) and self is this proxy's name within it. Returns the range
// ids claimed. This is the startup handshake of a multi-proxy
// deployment; the routing side is DialProxyGroup, whose member names
// must match peers for first-try routing to land on owners.
func (c *Client) ClaimOwnedRanges(peers []string, self string) ([]uint32, error) {
	if c.lblProxy == nil {
		return nil, fmt.Errorf("ortoa: range ownership requires ProtocolLBL")
	}
	found := false
	for _, p := range peers {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("ortoa: self %q is not in the peer list %v", self, peers)
	}
	rids := core.NewRing(peers).Ranges(self)
	if err := c.lblProxy.ClaimRanges(rids); err != nil {
		return nil, err
	}
	return rids, nil
}

// NumCounterRanges is the fixed size of the counter-range space that
// multi-proxy deployments partition ownership over (core range ids are
// [0, NumCounterRanges)).
const NumCounterRanges = core.NumRanges

// ServeProxy exposes this trusted client as a network proxy: end
// users connect to l and route oblivious accesses through it (the
// deployment model of §2.1). It blocks until Close, which stops the
// listener and drains accepted end-user connections.
func (c *Client) ServeProxy(l net.Listener) error {
	return c.ServeProxyOptions(l, ProxyServeOptions{})
}

// ProxyServeOptions tunes a proxy front end started with
// ServeProxyOptions. The zero value proxies each end-user request as
// its own access round trip.
type ProxyServeOptions struct {
	// AggWindow, when positive, turns on cross-session access
	// aggregation (ProtocolLBL only): concurrent end-user requests are
	// coalesced into shared batch round trips. A window
	// dispatches at most AggWindow after its first access arrives —
	// the latency each access may pay to buy the amortization.
	AggWindow time.Duration
	// AggMaxBatch dispatches a window early once it holds this many
	// accesses (default core DefaultAggMaxBatch, 64).
	AggMaxBatch int
	// AggMaxPending bounds admitted-but-unanswered accesses; arrivals
	// beyond it are rejected with an overload error instead of
	// queueing unboundedly (default 4×AggMaxBatch).
	AggMaxPending int
	// AggBrownoutPending is the pending depth at which the aggregator
	// browns out: new windows open with a larger size trigger
	// (AggBrownoutMaxBatch) and a quarter-length time window, trading
	// per-access coalescing latency for backlog drain rate (default
	// AggMaxPending/2).
	AggBrownoutPending int
	// AggBrownoutMaxBatch is the size trigger for windows opened under
	// brownout (default 2×AggMaxBatch).
	AggBrownoutMaxBatch int
	// Admission, when MaxInflight is positive, bounds the front end's
	// concurrent end-user requests and sheds overload with
	// constant-size busy rejections (see AdmissionOptions).
	Admission AdmissionOptions
}

// ServeProxyOptions is ServeProxy with explicit front-end options.
// It blocks until Close.
func (c *Client) ServeProxyOptions(l net.Listener, opts ProxyServeOptions) error {
	accessor := c.accessor
	var agg *core.Aggregator
	if opts.AggWindow > 0 {
		if c.lblProxy == nil {
			return fmt.Errorf("ortoa: access aggregation requires ProtocolLBL")
		}
		agg = core.NewAggregator(core.AggregatorConfig{
			Window:           opts.AggWindow,
			MaxBatch:         opts.AggMaxBatch,
			MaxPending:       opts.AggMaxPending,
			BrownoutPending:  opts.AggBrownoutPending,
			BrownoutMaxBatch: opts.AggBrownoutMaxBatch,
		}, c.lblProxy)
		agg.Instrument(c.metrics, "proxy")
		accessor = agg
	}
	ts := transport.NewServer()
	ts.Instrument(c.metrics, "proxy")
	ts.LimitAdmission(opts.Admission.config())
	core.RegisterProxyService(ts, accessor)
	c.proxyMu.Lock()
	if c.proxyClosed {
		c.proxyMu.Unlock()
		if agg != nil {
			agg.Close()
		}
		return transport.ErrClosed
	}
	c.proxySrvs = append(c.proxySrvs, ts)
	if agg != nil {
		c.proxyAggs = append(c.proxyAggs, agg)
	}
	c.proxyMu.Unlock()
	return ts.Serve(l)
}

// Close shuts the client down gracefully: proxy front ends started
// with ServeProxy stop accepting, accepted end-user connections drain
// (their in-flight accesses complete and are answered), aggregation
// windows flush, and only then are the connections to the server
// released. Close is idempotent and safe to call concurrently with
// serving.
func (c *Client) Close() error {
	c.proxyMu.Lock()
	srvs, aggs := c.proxySrvs, c.proxyAggs
	c.proxySrvs, c.proxyAggs = nil, nil
	c.proxyClosed = true
	c.proxyMu.Unlock()
	for _, ts := range srvs {
		ts.Close()
	}
	for _, agg := range aggs {
		agg.Close()
	}
	return c.rpc.Close()
}

// A ProxyClient is an end-user handle that routes requests through a
// trusted proxy started with ServeProxy. It holds no secrets.
type ProxyClient struct {
	remote *core.RemoteAccessor
	rpc    *transport.Client
}

// ProxyOptions tunes a ProxyClient's fault tolerance; the zero value
// means no per-call deadline and no retries.
type ProxyOptions struct {
	// CallTimeout bounds each request attempt to the proxy; zero means
	// no deadline.
	CallTimeout time.Duration
	// RetryAttempts is the total number of attempts per request,
	// including the first; values below 2 disable retries. Retries are
	// at-most-once (see ClientConfig.RetryAttempts).
	RetryAttempts int
}

// DialProxy connects to a proxy with no deadline or retries.
func DialProxy(dial func() (net.Conn, error), conns int) (*ProxyClient, error) {
	return DialProxyOptions(dial, conns, ProxyOptions{})
}

// DialProxyOptions connects to a proxy with explicit fault-tolerance
// options.
func DialProxyOptions(dial func() (net.Conn, error), conns int, opts ProxyOptions) (*ProxyClient, error) {
	if conns <= 0 {
		conns = 2
	}
	rpc, err := transport.DialOptions(dial, transport.Options{
		PoolSize:    conns,
		CallTimeout: opts.CallTimeout,
		Retry:       transport.RetryPolicy{Attempts: opts.RetryAttempts},
	})
	if err != nil {
		return nil, err
	}
	return &ProxyClient{remote: core.NewRemoteAccessor(rpc), rpc: rpc}, nil
}

// Read fetches the value stored under key via the proxy.
func (p *ProxyClient) Read(key string) ([]byte, error) {
	v, _, err := p.remote.Access(core.OpRead, key, nil)
	return v, err
}

// Write replaces the value stored under key via the proxy. The value
// must already match the store's fixed size (the proxy rejects
// mismatches).
func (p *ProxyClient) Write(key string, value []byte) error {
	_, _, err := p.remote.Access(core.OpWrite, key, value)
	return err
}

// Close releases the proxy connections.
func (p *ProxyClient) Close() error { return p.rpc.Close() }
