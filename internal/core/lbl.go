package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// LBLMode selects the LBL-ORTOA variant.
type LBLMode uint8

const (
	// LBLBasic is the §5.2 protocol: one label per plaintext bit
	// (y=1), entries shuffled, server try-decrypts both.
	LBLBasic LBLMode = iota
	// LBLSpaceOpt is the §10.1 space optimization: one label per two
	// bits (y=2), halving server storage; the server try-decrypts up
	// to four entries per group.
	LBLSpaceOpt
	// LBLPointPermute adds the §10.2 point-and-permute optimization
	// to y=2: the server stores two decryption bits per group and
	// decrypts exactly one entry. This is the configuration the
	// paper's cost analysis assumes (§6.3.3).
	LBLPointPermute
	// LBLWide generalizes the space optimization to y=4 (one label
	// per four plaintext bits, 2^4 = 16 shuffled entries per group).
	// Appendix §10.1 analyzes this point: storage shrinks to ℓ/4
	// labels but communication doubles relative to y=2, which is why
	// the paper settles on y=2. Implemented so the Fig 6 trade-off can
	// be measured rather than only computed.
	LBLWide
	// LBLWidePointPermute is y=4 with point-and-permute decryption
	// bits (four per group).
	LBLWidePointPermute
)

// String names the mode for experiment labels.
func (m LBLMode) String() string {
	switch m {
	case LBLBasic:
		return "basic(y=1)"
	case LBLSpaceOpt:
		return "spaceopt(y=2)"
	case LBLPointPermute:
		return "point-permute(y=2)"
	case LBLWide:
		return "wide(y=4)"
	case LBLWidePointPermute:
		return "wide-point-permute(y=4)"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Y returns how many plaintext bits one label represents.
func (m LBLMode) Y() int {
	switch m {
	case LBLBasic:
		return 1
	case LBLWide, LBLWidePointPermute:
		return 4
	default:
		return 2
	}
}

// entries returns the encryption-table entries per group (2^y).
func (m LBLMode) entries() int { return 1 << m.Y() }

// hasDbits reports whether records carry decryption bits.
func (m LBLMode) hasDbits() bool {
	return m == LBLPointPermute || m == LBLWidePointPermute
}

// entryPlainLen is the plaintext length of one table entry: the new
// label, plus the next decryption bits under point-and-permute.
func (m LBLMode) entryPlainLen() int {
	if m.hasDbits() {
		return prf.Size + 1
	}
	return prf.Size
}

// entryLen is the sealed length of one table entry.
func (m LBLMode) entryLen() int { return m.entryPlainLen() + secretbox.LabelOverhead }

// LBLConfig fixes the parameters shared by an LBL proxy and the
// records it creates.
type LBLConfig struct {
	// ValueSize is the fixed plaintext value length in bytes (ℓ/8).
	ValueSize int
	// Mode selects the protocol variant.
	Mode LBLMode
	// ReconcileScan, when positive, lets the proxy recover from
	// counter desynchronization after a crash (a server restarted from
	// older durable state, or a proxy restarted from an older counter
	// snapshot) by probing up to this many counter steps each way from
	// its own value. Zero disables reconciliation: a desynchronized key
	// fails every access with the server's stale rejection, the §5.3.1
	// behavior. See reconcile.go.
	ReconcileScan int
	// AutoAdopt, in multi-proxy deployments, lets the proxy adopt a
	// counter range on demand: when an access is epoch-fenced (another
	// proxy owned the range more recently — typically because this
	// proxy was just handed the range by the router after its owner
	// died), the proxy claims the range, bumping its epoch, and retries.
	// The retry then rebases the key's counter through ReconcileScan,
	// which AutoAdopt therefore requires to be useful. See epoch.go.
	AutoAdopt bool
	// StreamChunkBytes, when positive, bounds the sealed-table bytes one
	// request frame carries. A round whose tables exceed it goes out as
	// k > 1 frames on one connection (see frames): the proxy writes each
	// frame as soon as its groups are sealed, and the server
	// trial-decrypts each frame before the last one lands, pipelining
	// the garbling CPU against the WAN. It also bounds the proxy's table
	// memory per round to one chunk instead of the full ℓ/y groups per
	// key. Zero sends every round as one frame.
	StreamChunkBytes int
}

// Groups returns the number of label groups per value (ℓ/y).
func (c LBLConfig) Groups() int { return c.ValueSize * 8 / c.Mode.Y() }

// ServerBytesPerValue returns the server-side record size, the
// quantity §5.3.1 and the Fig 6 storage factor analysis price.
func (c LBLConfig) ServerBytesPerValue() int {
	n := 1 + c.Groups()*prf.Size
	if c.Mode.hasDbits() {
		n += c.Groups()
	}
	return n
}

// groupLen is the sealed size of one label group: 2^y entries.
func (c LBLConfig) groupLen() int { return c.Mode.entries() * c.Mode.entryLen() }

// TableBytes returns the size of one access's encryption table
// (2^y · E_len · ℓ/y).
func (c LBLConfig) TableBytes() int { return c.Groups() * c.groupLen() }

// An LBL round — one MsgLBLAccess call — accesses n ≥ 1 keys. Its
// n·ℓ/y sealed groups, key after key, travel in k ≥ 1 request frames.
// The head frame is
//
//	mode ‖ uvarint groups ‖ uvarint entry length ‖ uvarint n ‖ uvarint k ‖
//	n × (encoded key ‖ ownership claim) ‖ the first frame's groups
//
// and each of the k−1 continuation frames is
//
//	lblContinuation ‖ mode ‖ uvarint groups ‖ uvarint count ‖ count groups.
//
// Every frame but the last carries chunkGroups(n·ℓ/y, k) groups, the
// last one the rest. k is a pure function of the geometry, n and the
// chunk budget, so frame counts and lengths depend on public parameters
// only, whatever operations the round carries.

// lblContinuation opens every continuation frame. A head opens with its
// mode byte, which is always below it.
const lblContinuation = 0x80

// lblIDLen is one key's identity in the head: encoded key and
// ownership claim.
const lblIDLen = prf.Size + lblClaimLen

// chunkGroups returns how many groups each frame but the last carries
// when total groups travel in k frames.
func chunkGroups(total, k int) int { return (total + k - 1) / k }

// frames returns the frame count k of an n-key round under the chunk
// budget, and the groups each frame but the last carries.
func (c LBLConfig) frames(n int) (k, perFrame int) {
	total := n * c.Groups()
	k = 1
	if c.StreamChunkBytes > 0 {
		budget := max(1, c.StreamChunkBytes/c.groupLen())
		k = (total + budget - 1) / budget
	}
	return k, chunkGroups(total, k)
}

// contHeaderLen is the header size of a continuation frame carrying
// count groups.
func (c LBLConfig) contHeaderLen(count int) int {
	return 2 + wire.UvarintLen(uint64(c.Groups())) + wire.UvarintLen(uint64(count))
}

// RequestBytes returns the exact request size of an n-key round, summed
// over its k frames (§5.3.2: 2^y · E_len · ℓ/y table bytes per key plus
// framing, including the fixed-width ownership claim of epoch.go).
func (c LBLConfig) RequestBytes(n int) int {
	k, per := c.frames(n)
	total := n * c.Groups()
	b := 1 + wire.UvarintLen(uint64(c.Groups())) + wire.UvarintLen(uint64(c.Mode.entryLen())) +
		wire.UvarintLen(uint64(n)) + wire.UvarintLen(uint64(k)) + n*lblIDLen + total*c.groupLen()
	if k > 1 {
		b += (k-2)*c.contHeaderLen(per) + c.contHeaderLen(total-(k-1)*per)
	}
	return b
}

// RequestBytesPerAccess returns the request size of one single-key
// access, RequestBytes(1).
func (c LBLConfig) RequestBytesPerAccess() int { return c.RequestBytes(1) }

// writeFrames lays an n-key round out as its k frames. For each frame
// in order it resets w and writes the frame's header — the head's, with
// ids appending the n key identities, or a continuation's — then the
// frame's sealed groups, which seal fills for the round's groups
// [g0, g1); emit then takes the frame, whose bytes stay valid only
// until the next one is written.
func (c LBLConfig) writeFrames(w *wire.Writer, n int, ids func(*wire.Writer), seal func(dst []byte, g0, g1 int) error, emit func([]byte) error) error {
	k, per := c.frames(n)
	total := n * c.Groups()
	for f := 0; f < k; f++ {
		g0 := f * per
		g1 := min(g0+per, total)
		w.Reset()
		if f == 0 {
			w.Byte(byte(c.Mode))
			w.Uvarint(uint64(c.Groups()))
			w.Uvarint(uint64(c.Mode.entryLen()))
			w.Uvarint(uint64(n))
			w.Uvarint(uint64(k))
			ids(w)
		} else {
			w.Byte(lblContinuation)
			w.Byte(byte(c.Mode))
			w.Uvarint(uint64(c.Groups()))
			w.Uvarint(uint64(g1 - g0))
		}
		if err := seal(w.Extend((g1-g0)*c.groupLen()), g0, g1); err != nil {
			return err
		}
		if err := emit(w.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

func (c LBLConfig) validate() error {
	if c.ValueSize <= 0 {
		return fmt.Errorf("core: LBL value size %d must be positive", c.ValueSize)
	}
	if c.Mode > LBLWidePointPermute {
		return fmt.Errorf("core: unknown LBL mode %d", c.Mode)
	}
	if c.StreamChunkBytes < 0 {
		return fmt.Errorf("core: negative stream chunk budget %d", c.StreamChunkBytes)
	}
	return nil
}

// groupBits extracts the y-bit group g from value (little-endian bit
// order within each byte; y ∈ {1, 2, 4} always divides 8, so a group
// never straddles a byte boundary).
func groupBits(value []byte, g, y int) uint8 {
	bit := g * y
	mask := uint8(1)<<y - 1
	return (value[bit/8] >> (uint(bit) % 8)) & mask
}

// setGroupBits writes the y-bit group g of value.
func setGroupBits(value []byte, g, y int, bits uint8) {
	pos := g * y
	mask := uint8(1)<<y - 1
	value[pos/8] |= (bits & mask) << (uint(pos) % 8)
}

// An LBLProxy is the trusted, stateful side of LBL-ORTOA. It holds the
// PRF master secret and the per-key access counters, and talks to the
// untrusted server over client.
type LBLProxy struct {
	cfg      LBLConfig
	prf      *prf.PRF
	counters *counterTable
	client   *transport.Client
	// epochs holds the proxy's last granted epoch per counter range,
	// stamped into every access frame (epoch.go). All zeros — the
	// single-proxy state — stamps legacy epoch-0 claims the server
	// always admits.
	epochs [NumRanges]atomic.Uint64
	mx     lblProxyObs
}

// NewLBLProxy returns a proxy using f as its PRF and client to reach
// the server. client may be nil for offline uses (BuildRecord only).
func NewLBLProxy(cfg LBLConfig, f *prf.PRF, client *transport.Client) (*LBLProxy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &LBLProxy{cfg: cfg, prf: f, counters: newCounterTable(), client: client}, nil
}

// Config returns the proxy's configuration.
func (p *LBLProxy) Config() LBLConfig { return p.cfg }

// CounterKeys returns the number of keys with tracked access counters
// — the proxy state whose size §5.3.1 analyzes.
func (p *LBLProxy) CounterKeys() int { return p.counters.Len() }

// SaveCounters persists the access-counter table — the one piece of
// proxy state LBL-ORTOA cannot regenerate. Quiesce accesses first.
func (p *LBLProxy) SaveCounters(w io.Writer) error { return p.counters.save(w) }

// LoadCounters restores a SaveCounters snapshot, merging over current
// entries. A proxy restarted without its counters will fail its first
// access per key with a server-side decryption error rather than
// corrupt data.
func (p *LBLProxy) LoadCounters(r io.Reader) error { return p.counters.load(r) }

// BuildRecord encodes the initial record for (key, value) at access
// counter 0, to be bulk-loaded into the server's store (the Init
// procedure of Figure 1). value must be exactly ValueSize bytes.
func (p *LBLProxy) BuildRecord(key string, value []byte) (encKey string, record []byte, err error) {
	if len(value) != p.cfg.ValueSize {
		return "", nil, ErrValueSize
	}
	y := p.cfg.Mode.Y()
	groups := p.cfg.Groups()
	gen := p.prf.LabelGen(key)
	rec := make([]byte, 0, p.cfg.ServerBytesPerValue())
	rec = append(rec, byte(p.cfg.Mode))
	for g := 0; g < groups; g++ {
		bits := groupBits(value, g, y)
		label := gen.Label(g, bits, 0)
		rec = append(rec, label[:]...)
	}
	if p.cfg.Mode.hasDbits() {
		mask := uint8(p.cfg.Mode.entries() - 1)
		for g := 0; g < groups; g++ {
			bits := groupBits(value, g, y)
			r := gen.PermuteBits(g, 0) & mask
			rec = append(rec, bits^r)
		}
	}
	ek := p.prf.EncodeKey(key)
	return string(ek[:]), rec, nil
}

// Access performs one oblivious access (§5.2). For reads, newValue is
// ignored and the stored value is returned. For writes, newValue
// (exactly ValueSize bytes) replaces the stored value; the returned
// slice echoes the written value.
func (p *LBLProxy) Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	return p.AccessContext(context.Background(), op, key, newValue)
}

// AccessContext is Access with a caller context: cancellation plus the
// active trace span, under which the whole proxy-side stage tree
// (counter_acquire, table_build, rpc, label_recover) is recorded. The
// access is a round of one key.
func (p *LBLProxy) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	if op == OpWrite && len(newValue) != p.cfg.ValueSize {
		return nil, AccessStats{}, ErrValueSize
	}
	if p.client == nil {
		return nil, AccessStats{}, fmt.Errorf("core: LBL proxy has no server connection")
	}
	keys := []roundKey{{op: op, key: key, value: newValue}}
	stats, err := p.round(ctx, true, keys)
	return keys[0].out, stats, err
}

// A roundKey is one key's access within a round.
type roundKey struct {
	op    Op
	key   string
	value []byte        // the written value, for OpWrite
	entry *counterEntry // the key's counter, held for the round (nil for probes)
	ct    uint64        // the counter the key's table is built at
	gen   *prf.LabelGen // the key's label generator, built once per round (labelGen)

	labels []byte // the server's response labels
	out    []byte // the recovered value
	err    error  // this access's outcome
}

// round performs one LBL round trip (§5.2) for keys, which are unique
// and sorted: it acquires every key's counter, settles parked rounds,
// sends the keys' tables as one call of k frames, and recovers every
// value from the one response. Each key's value or error lands in its
// roundKey, and its counter commits only once its value is recovered;
// the first error is returned. single marks a lone Access: its spans,
// stage histograms and slow-trace log are the per-access ones.
//
// A one-key round rejected by the epoch fence or as stale retries after
// adopting the range or reconciling the counter. An n-key round
// reports such per-key rejections in its response instead.
func (p *LBLProxy) round(ctx context.Context, single bool, keys []roundKey) (AccessStats, error) {
	var stats AccessStats
	timer := p.mx.batch
	if single {
		timer = p.mx.single
	} else {
		p.mx.batchKeys.Add(int64(len(keys)))
	}
	rec, ctx := timer.Start(ctx, lblAcquire)
	fail := func(err error) (AccessStats, error) {
		for i := range keys {
			if keys[i].err == nil {
				keys[i].err = err
			}
		}
		rec.End(err, nil)
		return stats, err
	}

	// Per-key serialization: the label schedule is counter-indexed, so
	// a key's accesses must not interleave (see counterTable). Counters
	// are taken in sorted key order, so concurrent rounds cannot
	// deadlock.
	for i := range keys {
		keys[i].entry = p.counters.acquire(keys[i].key)
	}
	defer func() {
		for i := range keys {
			keys[i].entry.mu.Unlock()
		}
	}()
	// Settle ambiguous earlier rounds (at-most-once replay, see
	// pending.go) before building tables at counter values that may
	// already be stale. An unresolvable round fails the whole round: no
	// frame was sent, so no counter state changed.
	for i := range keys {
		if keys[i].entry.pending != nil {
			if err := p.resolvePending(keys[i].key, keys[i].entry); err != nil {
				return fail(err)
			}
		}
	}

	var resp []byte
	// Each recovery transition below is bounded per round, and they may
	// chain: an adoption (fence → claim) typically exposes a
	// desynchronized counter on its retry (the adopter starts from a
	// stale or empty snapshot), which reconciliation then rebases. The
	// allowance is >1 because during a live ownership handoff a peer can
	// adopt the range back (or advance the counter) between our recovery
	// step and its retry; the transient resolves within a lap or two.
	const recoveryAllowance = 3
	var claimed, reconciled int
	for {
		// Dead callers get no tables: garbling is the proxy's most
		// expensive stage, so a round whose propagated deadline has
		// already passed is dropped before building anything (DESIGN.md
		// §15). Nothing was sent — a definite non-execution, never
		// parked as ambiguous.
		if ctx.Err() != nil {
			return fail(errDeadlineBeforeBuild)
		}
		rec.Mark(lblBuild)
		for i := range keys {
			keys[i].ct = keys[i].entry.ct
		}
		id := p.client.NextID()
		var req *wire.Writer
		var err error
		resp, req, err = p.sendRound(ctx, rec, id, keys)
		stats.PrepBytes = p.cfg.RequestBytes(len(keys))
		if err == nil {
			rec.Mark(lblRecover)
			wire.PutWriter(req)
			break
		}
		// A failed round trip ends its stage here: recovery work before
		// a retry belongs to no stage.
		rec.Mark(obs.Idle)
		if transport.Ambiguous(err) {
			// The round may have executed. Park it on every key, which
			// then settles its own share of the outcome on its next
			// access. A one-frame round's parked rounds own its request
			// bytes for replay (replays of one id dedup to a single
			// execution server-side); a multi-frame round parks none.
			for i := range keys {
				keys[i].entry.pending = parkRound(id, req, keys, i)
			}
			p.mx.pendingSaved.Add(int64(len(keys)))
			return fail(err)
		}
		wire.PutWriter(req)
		if len(keys) == 1 && claimed < recoveryAllowance && p.cfg.AutoAdopt && isFencedRound(err) {
			// The range's epoch moved past ours: we are being handed
			// ownership (or re-learning it after a restart). Claim the
			// range — fencing out every older owner — and retry at the
			// granted epoch.
			claimed++
			p.mx.fencedRounds.Inc()
			if _, cerr := p.ClaimRange(RangeOf(keys[0].key)); cerr == nil {
				continue
			}
		} else if len(keys) == 1 && reconciled < recoveryAllowance && p.cfg.ReconcileScan > 0 && isStaleRound(err) {
			// A fresh stale rejection with no parked round means the
			// counter and the server's record have desynchronized
			// (crash recovery on either side, or a just-adopted range
			// whose counters we never held). Re-locate the server's
			// counter and retry this access at the rebased value.
			reconciled++
			if p.reconcile(keys[0].key, keys[0].entry) == nil {
				continue
			}
		}
		return fail(err)
	}
	stats.RespBytes = len(resp)

	if err := eachResult(resp, len(keys), p.cfg.Groups()*prf.Size, func(i int, labels []byte, msg string) {
		keys[i].labels = labels
		if msg != "" {
			// Per-key rejection: the server left this record untouched,
			// so the counter must not advance.
			keys[i].err = fmt.Errorf("core: batch access %q: %w", keys[i].key, &transport.RemoteError{Msg: msg})
		}
	}); err != nil {
		for i := range keys {
			keys[i].err = err
		}
		return fail(err)
	}

	// Recover each value from its labels (2^y·ℓ/y PRF comparisons per
	// key in the worst case), across keys and within each key's groups.
	workers := min(max(1, runtime.GOMAXPROCS(0)/len(keys)), tableWorkers(p.cfg.Groups()))
	if len(keys) == 1 {
		// The common one-key round: no fan-out closure to allocate.
		p.recoverKey(&keys[0], workers)
	} else {
		forEachBatched(len(keys), func(i int) { p.recoverKey(&keys[i], workers) })
	}

	var firstErr error
	for i := range keys {
		if keys[i].err != nil {
			if firstErr == nil {
				firstErr = keys[i].err
			}
			continue
		}
		keys[i].entry.ct++ // commit the counter only after a successful round
	}
	// A batch round's per-key failures are answers, not a failed round.
	var roundErr error
	if single {
		roundErr = firstErr
	}
	rec.End(roundErr, func() string {
		ek := p.prf.EncodeKey(keys[0].key)
		return traceLabel(ek[:])
	})
	return stats, firstErr
}

// recoverKey recovers k's value from its response labels, unless the
// server already rejected k.
func (p *LBLProxy) recoverKey(k *roundKey, workers int) {
	if k.err != nil {
		return
	}
	k.out, k.err = p.recoverWorkers(p.labelGen(k), k.op, k.value, k.ct+1, k.labels, workers)
}

// eachResult walks an n-key round's response, calling fn with each
// key's labels or, if the server rejected that key, its error text. A
// one-key round's response is the bare label block — its rejection
// arrives as the call's error — and an n-key response holds, per key, a
// zero status byte and the labels, or a nonzero one and an error
// string.
func eachResult(resp []byte, n, labelLen int, fn func(i int, labels []byte, msg string)) error {
	if n == 1 {
		fn(0, resp, "")
		return nil
	}
	r := wire.NewReader(resp)
	for i := 0; i < n && r.Err() == nil; i++ {
		var labels []byte
		var msg string
		if r.Byte() != 0 {
			if msg = r.String(); msg == "" {
				msg = "unspecified server error"
			}
		} else {
			labels = r.Raw(labelLen)
		}
		if r.Err() == nil {
			fn(i, labels, msg)
		}
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: malformed batch response: %v", ErrTampered, err)
	}
	return nil
}

// parkRound returns the pendingRound key i of an ambiguous round
// parks. req is the round's request writer when it was one frame: the
// parked rounds then own its bytes, and the writer is never released.
func parkRound(id uint64, req *wire.Writer, keys []roundKey, i int) *pendingRound {
	pr := &pendingRound{id: id, n: len(keys), pos: i, op: keys[i].op, value: pendingValue(keys[i].op, keys[i].value)}
	if req != nil {
		pr.req = req.Bytes()
	}
	return pr
}

// sendRound builds keys' round at their counters and sends it as one
// MsgLBLAccess call of k frames (see frames), ending rec's table_build
// stage and starting its rpc stage once the last frame is sealed. A
// one-frame round is built into a pooled writer, which sendRound
// returns for the caller to release or to park for replay. A
// multi-frame round seals each frame while the previous one is on the
// wire, so its transport_stream span parents on the root span, and
// returns no writer. A round that fails before any frame is sent
// returns a *transport.NotSentError.
func (p *LBLProxy) sendRound(ctx context.Context, rec *obs.Recorder, id uint64, keys []roundKey) (resp []byte, req *wire.Writer, err error) {
	k, per := p.cfg.frames(len(keys))
	if k == 1 {
		req = wire.GetWriter(p.cfg.RequestBytes(len(keys)))
		if err := p.buildFrames(req, keys, func([]byte) error { return nil }); err != nil {
			wire.PutWriter(req)
			return nil, nil, &transport.NotSentError{Err: err}
		}
		rec.Mark(lblRPC)
		resp, err = p.client.CallContextID(rec.Context(ctx), id, MsgLBLAccess, req.Bytes())
		return resp, req, err
	}
	resp, err = p.client.CallStreamContextID(ctx, id, MsgLBLAccess,
		func(send func([]byte) error) error {
			// One pooled frame buffer, reused for every frame: the
			// transport copies the payload before send returns, so the
			// proxy holds one chunk of the round's tables at a time.
			w := wire.GetWriter(16 + len(keys)*lblIDLen + per*p.cfg.groupLen())
			defer wire.PutWriter(w)
			sent := 0
			return p.buildFrames(w, keys, func(frame []byte) error {
				if sent++; sent == k {
					rec.Mark(lblRPC)
				}
				p.mx.streamChunks.Inc()
				return send(frame)
			})
		})
	if err == nil {
		p.mx.streamRounds.Inc()
	}
	return resp, nil, err
}

// buildFrames seals keys' round into its k frames (steps 1.1–1.5 of
// §5.2 for every key), handing each frame to emit as soon as it is
// sealed.
func (p *LBLProxy) buildFrames(w *wire.Writer, keys []roundKey, emit func([]byte) error) error {
	return p.cfg.writeFrames(w, len(keys), func(w *wire.Writer) {
		for i := range keys {
			ek := p.prf.EncodeKey(keys[i].key)
			w.Raw(ek[:])
			rid := RangeOf(keys[i].key)
			putClaim(w.Extend(lblClaimLen), rid, p.rangeEpoch(rid))
		}
	}, func(dst []byte, g0, g1 int) error {
		return p.sealGroups(dst, keys, g0, g1)
	}, emit)
}

// minGroupsPerWorker bounds the table-build and recovery fan-out:
// below this many groups per worker the goroutine handoff costs more
// than the crypto it offloads.
const minGroupsPerWorker = 64

// tableWorkers returns the worker count for a CPU-bound pass over a
// groups-group table under GOMAXPROCS, never exceeding one worker per
// minGroupsPerWorker groups.
func tableWorkers(groups int) int {
	w := runtime.GOMAXPROCS(0)
	if cap := groups / minGroupsPerWorker; w > cap {
		w = cap
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sealGroups seals the round's groups [g0, g1) — key i owns groups
// i·ℓ/y up to (i+1)·ℓ/y — into dst. Table construction is the proxy's
// dominant CPU cost (2·ℓ PRFs plus 2^y·ℓ/y seals per key, §6.3.3), so
// it fans out across the keys the range touches and, when they are
// fewer than the cores, across each key's groups.
func (p *LBLProxy) sealGroups(dst []byte, keys []roundKey, g0, g1 int) error {
	groups := p.cfg.Groups()
	first, last := g0/groups, (g1-1)/groups
	if first == last {
		return p.sealSegment(dst, keys, first, g0, g1, tableWorkers(g1-g0))
	}
	n := last - first + 1
	inner := max(1, runtime.GOMAXPROCS(0)/n)
	errs := make([]error, n)
	forEachBatched(n, func(j int) { errs[j] = p.sealSegment(dst, keys, first+j, g0, g1, inner) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sealSegment seals key i's share of the round's groups [g0, g1) into
// its place in dst, which holds exactly those groups.
func (p *LBLProxy) sealSegment(dst []byte, keys []roundKey, i, g0, g1, workers int) error {
	groups, gl := p.cfg.Groups(), p.cfg.groupLen()
	a, b := max(g0, i*groups), min(g1, (i+1)*groups)
	return p.sealKey(dst[(a-g0)*gl:(b-g0)*gl], &keys[i], a-i*groups, b-i*groups, workers)
}

// labelGen returns k's label generator, building it on first use: one
// PRF evaluation and AES key schedule serve every frame of k's table
// and its label recovery.
func (p *LBLProxy) labelGen(k *roundKey) *prf.LabelGen {
	if k.gen == nil {
		k.gen = p.prf.LabelGen(k.key)
	}
	return k.gen
}

// sealKey seals groups [a, b) of k's encryption table at counter k.ct
// into dst, which holds exactly those groups, fanning group ranges out
// across workers. Entry slots are fixed-size, so each worker seals
// directly into its precomputed offsets; workers share nothing but the
// read-only inputs, a cloned label generator each, and one lane each of
// a seeded crypto-strength shuffle stream (see shuffle.go). The label
// schedule and the entry-placement distribution are identical to a
// sequential build of the whole table, so the server-visible
// transcript distribution — and with it the obliviousness argument —
// does not depend on the fan-out or the framing. workers <= 1 builds
// inline, allocation-free.
func (p *LBLProxy) sealKey(dst []byte, k *roundKey, a, b, workers int) error {
	gen := p.labelGen(k)
	n := b - a
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return p.buildGroupRange(dst, gen, newCryptoShuffler(), k.op, k.value, k.ct, a, b, a)
	}
	seed := newShuffleSeed()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		lo := a + n*wk/workers
		hi := a + n*(wk+1)/workers
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			errs[wk] = p.buildGroupRange(dst, gen.Clone(), seed.stream(uint32(wk)), k.op, k.value, k.ct, lo, hi, a)
		}(wk, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildGroupRange seals groups [g0, g1) of the table into their slots
// (steps 1.2–1.5 of §5.2 for those groups). gen and shuf are owned by
// the caller — one per worker — so the loop body allocates nothing.
// table holds groups starting at absolute group gBase — the first
// group of the frame's share of the key — so one frame-sized buffer
// serves a table that spans frames.
func (p *LBLProxy) buildGroupRange(table []byte, gen *prf.LabelGen, shuf *cryptoShuffler, op Op, newValue []byte, ct uint64, g0, g1, gBase int) error {
	cfg := p.cfg
	y := cfg.Mode.Y()
	nEntries := cfg.Mode.entries()
	entryLen := cfg.Mode.entryLen()
	sealer := secretbox.NewLabelSealer()

	var olds, news [16]prf.Output
	var plain [prf.Size + 1]byte
	var perm [16]int
	for g := g0; g < g1; g++ {
		slots := table[(g-gBase)*nEntries*entryLen : (g-gBase+1)*nEntries*entryLen]
		for b := 0; b < nEntries; b++ {
			olds[b] = gen.Label(g, uint8(b), ct)
			news[b] = gen.Label(g, uint8(b), ct+1)
		}
		var newBits uint8
		if op == OpWrite {
			newBits = groupBits(newValue, g, y)
		}

		if cfg.Mode.hasDbits() {
			// Point-and-permute: entry e is keyed by old label
			// ol_{e⊕r}; its plaintext carries the new label and the
			// next decryption bits, linked through r' (§10.2).
			mask := uint8(nEntries - 1)
			r := gen.PermuteBits(g, ct) & mask
			rNew := gen.PermuteBits(g, ct+1) & mask
			for e := 0; e < nEntries; e++ {
				b := uint8(e) ^ r
				target := b
				if op == OpWrite {
					target = newBits
				}
				copy(plain[:prf.Size], news[target][:])
				plain[prf.Size] = target ^ rNew
				if err := sealer.SealInto(slots[e*entryLen:(e+1)*entryLen], olds[b][:], plain[:]); err != nil {
					return err
				}
			}
			continue
		}

		// Basic / space-optimized: entries are generated in bit-value
		// order, so each is sealed directly into a uniformly random slot
		// (step 1.5). The slot permutation must be cryptographically
		// unpredictable — a guessable placement would leak plaintext
		// bits by position.
		shuf.perm(nEntries, perm[:])
		for b := 0; b < nEntries; b++ {
			target := uint8(b)
			if op == OpWrite {
				target = newBits
			}
			slot := perm[b]
			if err := sealer.SealInto(slots[slot*entryLen:(slot+1)*entryLen], olds[b][:], news[target][:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// recover maps the server's returned labels back to plaintext bits
// using the counter-(ct+1) label schedule, and performs the §5.4
// integrity check: every returned label must be one the proxy could
// have generated.
func (p *LBLProxy) recover(op Op, key string, newValue []byte, ctNew uint64, resp []byte) ([]byte, error) {
	return p.recoverWorkers(p.prf.LabelGen(key), op, newValue, ctNew, resp, tableWorkers(p.cfg.Groups()))
}

// recoverWorkers is recover with the key's label generator and an
// explicit fan-out: group ranges are recovered across workers, each
// with a clone of gen. Ranges
// are aligned to whole value bytes because setGroupBits read-modify-
// writes its byte — two workers must never share one.
func (p *LBLProxy) recoverWorkers(gen *prf.LabelGen, op Op, newValue []byte, ctNew uint64, resp []byte, workers int) ([]byte, error) {
	cfg := p.cfg
	groups := cfg.Groups()
	if len(resp) != groups*prf.Size {
		return nil, fmt.Errorf("%w: response has %d bytes, want %d", ErrTampered, len(resp), groups*prf.Size)
	}
	value := make([]byte, cfg.ValueSize)
	if workers > cfg.ValueSize {
		workers = cfg.ValueSize
	}
	if workers <= 1 {
		if err := p.recoverRange(value, resp, gen, ctNew, 0, groups); err != nil {
			return nil, err
		}
	} else {
		groupsPerByte := 8 / cfg.Mode.Y()
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			b0 := cfg.ValueSize * wk / workers
			b1 := cfg.ValueSize * (wk + 1) / workers
			wg.Add(1)
			go func(wk, g0, g1 int) {
				defer wg.Done()
				errs[wk] = p.recoverRange(value, resp, gen.Clone(), ctNew, g0, g1)
			}(wk, b0*groupsPerByte, b1*groupsPerByte)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if op == OpWrite {
		// The installed labels must reflect exactly the written value.
		for i := range value {
			if value[i] != newValue[i] {
				return nil, fmt.Errorf("%w: write-back mismatch at byte %d", ErrTampered, i)
			}
		}
	}
	return value, nil
}

// recoverRange recovers groups [g0, g1) of value from the response
// labels (§5.4 check included).
func (p *LBLProxy) recoverRange(value, resp []byte, gen *prf.LabelGen, ctNew uint64, g0, g1 int) error {
	cfg := p.cfg
	y := cfg.Mode.Y()
	nEntries := cfg.Mode.entries()
	var got prf.Output
	for g := g0; g < g1; g++ {
		copy(got[:], resp[g*prf.Size:])
		matched := false
		for b := 0; b < nEntries; b++ {
			if got.Equal(gen.Label(g, uint8(b), ctNew)) {
				setGroupBits(value, g, y, uint8(b))
				matched = true
				break
			}
		}
		if !matched {
			return fmt.Errorf("%w: group %d label unrecognized", ErrTampered, g)
		}
	}
	return nil
}

// A BatchOp is one operation of an AccessBatch. For OpWrite, Value must
// be exactly ValueSize bytes; for OpRead it is ignored.
type BatchOp struct {
	Op    Op
	Key   string
	Value []byte
}

// maxBatchFrameBytes caps the request of a one-frame round, leaving ample
// headroom under transport.MaxFrameSize; larger batches are split into
// several RPCs transparently.
const maxBatchFrameBytes = 48 << 20

// AccessBatch performs many oblivious accesses in (normally) one round
// trip: it acquires every key's counter, builds all encryption tables,
// sends them as one MsgLBLAccess round, and recovers every
// value from the single response (§5.2 amortized; see DESIGN.md).
//
// Results are returned in input order; reads yield the stored value,
// writes echo the written value. Two cases need more than one RPC:
// batches whose tables exceed the frame cap are split, and accesses to
// a key that appears more than once are issued in occurrence-order
// waves, because a key's label schedule is counter-indexed and its
// accesses must not share a counter value.
//
// On a per-key server error (e.g. an unloaded key), the remaining
// accesses still complete — their values are set and their counters
// committed — and AccessBatch returns the first error alongside the
// partial results.
func (p *LBLProxy) AccessBatch(ops []BatchOp) ([][]byte, AccessStats, error) {
	var stats AccessStats
	if p.client == nil {
		return nil, stats, fmt.Errorf("core: LBL proxy has no server connection")
	}
	for i := range ops {
		switch ops[i].Op {
		case OpRead:
		case OpWrite:
			if len(ops[i].Value) != p.cfg.ValueSize {
				return nil, stats, fmt.Errorf("batch op %d (%q): %w", i, ops[i].Key, ErrValueSize)
			}
		default:
			return nil, stats, fmt.Errorf("core: batch op %d: unknown op %d", i, ops[i].Op)
		}
	}

	all := make([]int, len(ops))
	for i := range all {
		all[i] = i
	}
	values := make([][]byte, len(ops))
	firstErr := p.accessBatchIndices(context.Background(), ops, all, values, make([]error, len(ops)), &stats)
	return values, stats, firstErr
}

// A BatchResult is one access's outcome within a batched round: the
// value (the stored value for a read, the written value echoed for a
// write) or that access's individual error.
type BatchResult struct {
	Value []byte
	Err   error
}

// AccessBatchResults is AccessBatch with per-access outcomes instead
// of first-error-wins: every access's value or error is reported at
// its own index, and an invalid op (unknown op code, wrong write
// size) fails only itself — the rest of the batch still runs. It
// exists for front ends that multiplex independent sessions into one
// frame (the Aggregator): one session's unloaded key must not fail
// its window mates.
func (p *LBLProxy) AccessBatchResults(ctx context.Context, ops []BatchOp) ([]BatchResult, AccessStats) {
	var stats AccessStats
	results := make([]BatchResult, len(ops))
	if p.client == nil {
		err := fmt.Errorf("core: LBL proxy has no server connection")
		for i := range results {
			results[i].Err = err
		}
		return results, stats
	}
	valid := make([]int, 0, len(ops))
	for i := range ops {
		switch ops[i].Op {
		case OpRead:
			valid = append(valid, i)
		case OpWrite:
			if len(ops[i].Value) != p.cfg.ValueSize {
				results[i].Err = fmt.Errorf("batch op %d (%q): %w", i, ops[i].Key, ErrValueSize)
				continue
			}
			valid = append(valid, i)
		default:
			results[i].Err = fmt.Errorf("core: batch op %d: unknown op %d", i, ops[i].Op)
		}
	}
	values := make([][]byte, len(ops))
	errs := make([]error, len(ops))
	p.accessBatchIndices(ctx, ops, valid, values, errs, &stats)
	for _, i := range valid {
		results[i] = BatchResult{Value: values[i], Err: errs[i]}
	}
	return results, stats
}

// accessBatchIndices runs the accesses ops[include...] through the
// wave/chunk pipeline, filling values and errs at the original
// indices, and returns the first error in chunk-processing order.
// Callers have already validated the included ops.
func (p *LBLProxy) accessBatchIndices(ctx context.Context, ops []BatchOp, include []int, values [][]byte, errs []error, stats *AccessStats) error {
	// Wave w holds the w-th occurrence of each key, so duplicate keys
	// never share a frame (their counters must advance between them).
	occurrence := make(map[string]int, len(include))
	var waves [][]int
	for _, i := range include {
		w := occurrence[ops[i].Key]
		occurrence[ops[i].Key] = w + 1
		if w == len(waves) {
			waves = append(waves, nil)
		}
		waves[w] = append(waves[w], i)
	}

	// A one-frame round must fit one request frame, so the per-call cap
	// derives from the per-key share (identity and table) of it. With a
	// stream chunk budget configured, the tables travel in chunk-sized
	// frames, so the binding frame is the single response — a status
	// byte plus a label block per key — and large-value batches do not
	// split into extra rounds just because their tables would not share
	// one request frame.
	var maxPerCall int
	if p.cfg.StreamChunkBytes > 0 {
		maxPerCall = (maxBatchFrameBytes - 32) / (1 + p.cfg.Groups()*prf.Size)
		if maxPerCall > maxBatchAccesses {
			maxPerCall = maxBatchAccesses
		}
	} else {
		maxPerCall = (maxBatchFrameBytes - 32) / (lblIDLen + p.cfg.TableBytes())
	}
	if maxPerCall < 1 {
		maxPerCall = 1
	}

	var firstErr error
	for _, wave := range waves {
		// Deterministic lock order: counters are acquired in sorted key
		// order, so concurrent AccessBatch calls cannot deadlock.
		sort.Slice(wave, func(a, b int) bool { return ops[wave[a]].Key < ops[wave[b]].Key })
		for start := 0; start < len(wave); start += maxPerCall {
			end := start + maxPerCall
			if end > len(wave) {
				end = len(wave)
			}
			chunk := wave[start:end]
			keys := make([]roundKey, len(chunk))
			for i, idx := range chunk {
				keys[i] = roundKey{op: ops[idx].Op, key: ops[idx].Key, value: ops[idx].Value}
			}
			st, err := p.round(ctx, false, keys)
			for i, idx := range chunk {
				values[idx], errs[idx] = keys[i].out, keys[i].err
			}
			stats.PrepBytes += st.PrepBytes
			stats.RespBytes += st.RespBytes
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// batchWorkers returns the worker count for the CPU-bound stages of a
// batch of n accesses: table construction and label recovery both fan
// out across cores, mirroring the server's handler, so the one-frame
// pipeline never loses to the concurrent fallback on compute.
func batchWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// forEachBatched runs fn(i) for i in [0, n) across batchWorkers(n)
// goroutines and returns after all complete.
func forEachBatched(n int, fn func(i int)) {
	workers := batchWorkers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
