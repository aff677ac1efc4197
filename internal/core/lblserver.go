package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// An LBLServer is the untrusted side of LBL-ORTOA: it stores one
// secret label per bit group (plus decryption bits under
// point-and-permute) and, per access, decrypts exactly the table
// entries its stored labels open, installing the recovered new labels
// (steps 2.1–2.2 of §5.2). It learns nothing about the operation type:
// reads and writes present identical work.
type LBLServer struct {
	store  *kvstore.Store
	access *obs.Histogram // per-key store read + label swap (Instrument)

	ops             atomic.Int64
	decryptAttempts atomic.Int64

	// epochs is the per-range ownership fence (epoch.go): the highest
	// epoch claimed for each counter range. In-memory only — a restarted
	// server relearns epochs from the first frame per range, and fencing
	// correctness never depends on the server remembering them (the
	// label schedule itself is the at-most-once guarantee; epochs only
	// shut out ex-owners promptly).
	epochs       [NumRanges]atomic.Uint64
	fencedRounds atomic.Int64
	epochBumps   atomic.Int64
	maxEpoch     atomic.Uint64

	// expiredRounds counts accesses dropped because their propagated
	// deadline budget ran out before trial decryption (DESIGN.md §15).
	expiredRounds atomic.Int64
}

// NewLBLServer returns a server over store.
func NewLBLServer(store *kvstore.Store) *LBLServer {
	return &LBLServer{store: store}
}

// Register installs the LBL access handlers on ts. Every round, of any
// key count and frame count, is a MsgLBLAccess; MsgLBLAccessBatch and
// MsgLBLAccessStream are retired numbers with no handler.
func (s *LBLServer) Register(ts *transport.Server) {
	ts.Handle(MsgLBLAccess, s.handleAccess)
	ts.Handle(MsgEpochClaim, s.handleEpochClaim)
}

// Ops returns the number of accesses served.
func (s *LBLServer) Ops() int64 { return s.ops.Load() }

// DecryptAttempts returns the cumulative number of authenticated
// decryptions attempted — the server-compute quantity the
// point-and-permute optimization halves (§10.2).
func (s *LBLServer) DecryptAttempts() int64 { return s.decryptAttempts.Load() }

// lblRecord is the parsed server-side state for one object.
type lblRecord struct {
	mode   LBLMode
	labels []byte // groups × prf.Size
	dbits  []byte // groups × 1, point-and-permute only
}

func parseLBLRecord(raw []byte, wantMode LBLMode, wantGroups int) (*lblRecord, error) {
	if len(raw) < 1 {
		return nil, errors.New("core: empty LBL record")
	}
	rec := &lblRecord{mode: LBLMode(raw[0])}
	if rec.mode != wantMode {
		return nil, fmt.Errorf("core: record mode %v does not match request mode %v", rec.mode, wantMode)
	}
	body := raw[1:]
	need := wantGroups * prf.Size
	if rec.mode.hasDbits() {
		need += wantGroups
	}
	if len(body) != need {
		return nil, fmt.Errorf("core: LBL record body %d bytes, want %d", len(body), need)
	}
	rec.labels = body[:wantGroups*prf.Size]
	if rec.mode.hasDbits() {
		rec.dbits = body[wantGroups*prf.Size:]
	}
	return rec, nil
}

// tableGeometry is the shared shape of the encryption tables in one
// request: the variant plus the derived per-table sizes.
type tableGeometry struct {
	mode     LBLMode
	groups   int
	entryLen int
	nEntries int
}

// groupLen is the sealed size of one label group.
func (g tableGeometry) groupLen() int { return g.nEntries * g.entryLen }

func (g tableGeometry) tableBytes() int { return g.groups * g.groupLen() }

// readGeometry consumes and validates a head's (mode, groups, entryLen)
// fields.
func readGeometry(r *wire.Reader) (tableGeometry, error) {
	var g tableGeometry
	g.mode = LBLMode(r.Byte())
	g.groups = int(r.Uvarint())
	g.entryLen = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return g, err
	}
	err := g.validate()
	return g, err
}

// validate checks the parsed header fields and fills nEntries.
func (g *tableGeometry) validate() error {
	if g.mode > LBLWidePointPermute {
		return fmt.Errorf("core: unknown LBL mode %d", g.mode)
	}
	if g.groups <= 0 || g.groups > 1<<22 {
		return fmt.Errorf("core: implausible group count %d", g.groups)
	}
	if g.entryLen != g.mode.entryLen() {
		return fmt.Errorf("core: entry length %d, want %d", g.entryLen, g.mode.entryLen())
	}
	g.nEntries = g.mode.entries()
	return nil
}

// staleTableMarker tags the server's fencing rejections: an access
// table keyed at a counter whose labels this record has already moved
// past. The proxy's ambiguous-round resolution (pending.go) relies on
// the marker — a stale rejection proves some round at that counter
// executed — so both the point-and-permute and try-all decrypt
// failures below must carry it.
const staleTableMarker = "stale access table"

// expiredRoundMarker tags the server's deadline drops: the request's
// propagated budget (frame header, DESIGN.md §15) ran out before trial
// decryption began, so the round was dropped without touching the
// record — a definite, retryable non-execution. Constant text, like
// the fence and staleness markers, so rejections carry no
// request-specific information.
const expiredRoundMarker = "deadline budget expired before decrypt"

var errExpiredRound = errors.New("core: " + expiredRoundMarker)

// expiredBuildMarker is the proxy-side analogue of expiredRoundMarker:
// the caller's deadline passed before the access table was built, so
// nothing was ever sent. One constant error value — like the fence —
// so the rejection carries no request-specific information.
const expiredBuildMarker = "deadline expired before table build; access not sent"

var errDeadlineBeforeBuild = errors.New("core: " + expiredBuildMarker)

// IsDeadlineExpired reports whether err is a deadline-budget drop —
// the proxy refusing to build a table for a dead caller, or the server
// dropping an expired-on-arrival round before trial decryption
// (locally or relayed as a RemoteError). Either way the access
// demonstrably did not execute; callers may retry with a fresh
// deadline.
func IsDeadlineExpired(err error) bool {
	if errors.Is(err, errDeadlineBeforeBuild) || errors.Is(err, errExpiredRound) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) &&
		(strings.Contains(re.Msg, expiredRoundMarker) || strings.Contains(re.Msg, expiredBuildMarker))
}

// checkBudget drops a round whose deadline already passed. It runs
// after parsing but before the epoch fence and any record work: an
// expired round must cost the server no trial decryption and leave the
// store untouched.
func (s *LBLServer) checkBudget(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	s.expiredRounds.Add(1)
	return errExpiredRound
}

// recPool recycles server-side record buffers: each successful access
// displaces the store's previous record slice — same length, exclusively
// ours once the update commits — which becomes a later access's
// new-record buffer. Steady-state record churn then allocates nothing.
var recPool = sync.Pool{New: func() any { return new([]byte) }}

// decryptRange executes step 2.1 of §5.2 for groups [g0, g1): trial-
// decrypt the table entries rec's stored labels open, writing the
// recovered new labels (and, under point-and-permute, the next
// decryption bits) into newLabels/newDbits at absolute group offsets.
// table is the full table, absolutely indexed. Returns the number of
// authenticated decryptions attempted; a group none of whose entries
// opens yields a staleTableMarker error — fencing proof for the
// proxy's ambiguous-round resolution. Shared by the install (whole
// tables inside the store update) and spanning keys (one frame's range
// as it lands).
func decryptRange(geo tableGeometry, rec *lblRecord, table []byte, g0, g1 int, newLabels, newDbits []byte) (int64, error) {
	mode, entryLen, nEntries := geo.mode, geo.entryLen, geo.nEntries
	var attempts int64
	var plainBuf [prf.Size + 1]byte
	plain := plainBuf[:mode.entryPlainLen()]
	sealer := secretbox.NewLabelSealer()
	for g := g0; g < g1; g++ {
		stored := rec.labels[g*prf.Size : (g+1)*prf.Size]
		entries := table[g*nEntries*entryLen : (g+1)*nEntries*entryLen]
		// Every trial in a group opens under the same stored label,
		// so the pad is derived once and each trial is a tag
		// comparison — up to 2^y−1 hashes saved per group on the
		// try-all path.
		opener, oerr := sealer.Opener(stored)
		if oerr != nil {
			return attempts, oerr
		}
		if mode.hasDbits() {
			// Point-and-permute: exactly one decryption, at the
			// stored entry index.
			d := int(rec.dbits[g]) & (nEntries - 1)
			attempts++
			if derr := opener.OpenInto(plain, entries[d*entryLen:(d+1)*entryLen]); derr != nil {
				return attempts, fmt.Errorf("core: %s: group %d entry %d undecryptable", staleTableMarker, g, d)
			}
			newDbits[g] = plain[prf.Size]
		} else {
			// Try each shuffled entry; the recognition tag
			// identifies the one our label opens (§5.2 step 2.1).
			hit := false
			for e := 0; e < nEntries; e++ {
				attempts++
				if derr := opener.OpenInto(plain, entries[e*entryLen:(e+1)*entryLen]); derr == nil {
					hit = true
					break
				}
			}
			if !hit {
				return attempts, fmt.Errorf("core: %s: group %d: no table entry decryptable", staleTableMarker, g)
			}
		}
		copy(newLabels[g*prf.Size:], plain[:prf.Size])
	}
	return attempts, nil
}

// accessOne installs one key's table: atomically, inside the store
// update, it recovers the new labels the stored record opens (steps
// 2.1–2.2 of §5.2) and installs them, writing them to labelsOut too —
// groups × prf.Size bytes owned by the caller, so a round's keys share
// one response-sized buffer. The labels come from span when its table
// was decrypted chunk by chunk against a snapshot the record still
// equals; otherwise — every one-frame table, or a record that moved
// since the snapshot — table is trial-decrypted against the current
// record here.
func (s *LBLServer) accessOne(encKey string, geo tableGeometry, table, labelsOut []byte, span *spanKey) error {
	if s.access != nil {
		defer s.access.Since(time.Now())
	}
	mode, groups := geo.mode, geo.groups
	// Trial decryptions are counted locally and published once per
	// access: a per-entry atomic add is a cross-core cacheline ping-pong
	// when a round's keys are applied in parallel.
	var attempts int64
	if span != nil {
		attempts = span.attempts
	}
	bp := recPool.Get().(*[]byte)
	applied := false
	err := s.store.Update(encKey, func(old []byte) ([]byte, error) {
		rec, err := parseLBLRecord(old, mode, groups)
		if err != nil {
			return nil, err
		}
		newRec := *bp
		if cap(newRec) < len(old) {
			newRec = make([]byte, len(old))
		} else {
			newRec = newRec[:len(old)]
		}
		*bp = newRec
		newRec[0] = byte(mode)
		newLabels := newRec[1 : 1+groups*prf.Size]
		var newDbits []byte
		if mode.hasDbits() {
			newDbits = newRec[1+groups*prf.Size:]
		}
		if span != nil && bytes.Equal(old, span.snap) {
			copy(newLabels, span.labels)
			copy(newDbits, span.dbits)
		} else {
			a, derr := decryptRange(geo, rec, table, 0, groups, newLabels, newDbits)
			attempts += a
			if derr != nil {
				return nil, derr
			}
		}
		copy(labelsOut, newLabels)
		// Hand the store the new record; the displaced old slice is
		// recycled below once the update commits.
		*bp = old
		applied = true
		return newRec, nil
	})
	if err != nil && applied {
		// The closure succeeded but journaling or the durability wait
		// failed; the store may retain either buffer, so recycle
		// neither.
		*bp = nil
	}
	recPool.Put(bp)
	if errors.Is(err, kvstore.ErrNotFound) {
		return ErrNotFound
	}
	if err != nil {
		return err
	}
	s.ops.Add(1)
	s.decryptAttempts.Add(attempts)
	return nil
}

// maxBatchAccesses bounds one round's key count, limiting the memory a
// single request can pin.
const maxBatchAccesses = 1 << 16

// An lblHead is a parsed round head (see LBLConfig.writeFrames).
type lblHead struct {
	geo  tableGeometry
	n, k int
	ids  []byte // n × (encoded key ‖ ownership claim)
	body []byte // the head's sealed groups
}

// readHead parses and validates a round's head frame.
func readHead(payload []byte) (lblHead, error) {
	var h lblHead
	r := wire.NewReader(payload)
	geo, err := readGeometry(r)
	if err != nil {
		return h, err
	}
	n, k := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return h, err
	}
	if n == 0 || n > maxBatchAccesses {
		return h, fmt.Errorf("core: implausible batch size %d", n)
	}
	total := int(n) * geo.groups
	// The response carries every key's labels in one frame, which also
	// bounds what a head can make the server allocate before the
	// tables it announces have arrived.
	if total*prf.Size+int(n) > transport.MaxFrameSize {
		return h, fmt.Errorf("core: labels of %d keys exceed one response frame", n)
	}
	if k == 0 || k > uint64(total) || (int(k)-1)*chunkGroups(total, int(k)) >= total {
		return h, fmt.Errorf("core: implausible frame count %d for %d groups", k, total)
	}
	h = lblHead{geo: geo, n: int(n), k: int(k)}
	h.ids = r.Raw(h.n * lblIDLen)
	h.body = r.Raw(chunkGroups(total, h.k) * geo.groupLen())
	return h, r.Finish()
}

// readContinuation parses a continuation frame: its geometry, group
// count and sealed groups.
func readContinuation(payload []byte) (geo tableGeometry, count int, body []byte, err error) {
	r := wire.NewReader(payload)
	if tag := r.Byte(); tag != lblContinuation {
		return geo, 0, nil, fmt.Errorf("core: frame opens with %#x, not a continuation", tag)
	}
	geo.mode = LBLMode(r.Byte())
	geo.groups = int(r.Uvarint())
	geo.entryLen = geo.mode.entryLen()
	c := r.Uvarint()
	if err := r.Err(); err != nil {
		return geo, 0, nil, err
	}
	if err := geo.validate(); err != nil {
		return geo, 0, nil, err
	}
	if c == 0 || c > uint64(r.Remaining()/geo.groupLen()) {
		return geo, 0, nil, fmt.Errorf("core: continuation of %d groups in %d bytes", c, r.Remaining())
	}
	count = int(c)
	body = r.Raw(count * geo.groupLen())
	return geo, count, body, r.Finish()
}

// handleAccess serves MsgLBLAccess: one round of n ≥ 1 keys whose
// tables arrive in k ≥ 1 frames, the head as the payload and the k−1
// continuations through the transport's StreamReader. The one response
// answers every key: for n = 1 the bare label block, or the key's
// rejection as the handler's error; for n > 1 a status byte per key,
// then its labels or an error string. Work and response shape depend
// only on the geometry, n and k, never on operation types, so a round
// leaks exactly as much as n single accesses: nothing beyond "n objects
// were accessed".
func (s *LBLServer) handleAccess(ctx context.Context, payload []byte) ([]byte, error) {
	h, err := readHead(payload)
	if err != nil {
		return nil, err
	}
	sp := trace.StartChild(ctx, "server_decrypt")
	defer sp.End()
	stride := h.geo.groups * prf.Size
	// The response is retained by the transport's at-most-once dedup
	// cache, so it must be freshly allocated, never pooled.
	labels := make([]byte, h.n*stride)
	errs := make([]error, h.n)
	s.applyRound(ctx, h, labels, errs)
	if h.n == 1 {
		if errs[0] != nil {
			return nil, errs[0]
		}
		return labels, nil
	}
	out := wire.NewWriter(h.n * (1 + stride))
	for i, err := range errs {
		if err != nil {
			out.Byte(1)
			out.String(err.Error())
			continue
		}
		out.Byte(0)
		out.Raw(labels[i*stride : (i+1)*stride])
	}
	return out.Bytes(), nil
}

// streamAbortMarker tags rejections of keys whose frames never arrived
// or arrived malformed: the record was left untouched. Constant text
// like the other rejection markers — and deliberately free of the
// staleness, fence, and expiry markers, so the proxy's ambiguous-round
// resolution classifies an aborted key as a definite rejection rather
// than proof of execution.
const streamAbortMarker = "stream aborted before completion"

// applyRound applies a round's keys as their frames land, writing key
// i's new labels to labels[i·groups·prf.Size:] or its rejection to
// errs[i]. Keys whose tables sit wholly in one frame are applied
// together as that frame lands, fanned out across the kvstore's shards,
// so the first keys' decryptions overlap the later frames' garbling and
// wire time. A key whose table spans frames is trial-decrypted against
// a snapshot of its record as each of its frames lands, and installed
// once its last group arrives (accessOne). Keys are applied in order,
// so at most one spanning key is in progress: the server buffers at
// most one table per round beyond the frame in hand.
func (s *LBLServer) applyRound(ctx context.Context, h lblHead, labels []byte, errs []error) {
	groups, gl, stride := h.geo.groups, h.geo.groupLen(), h.geo.groups*prf.Size
	total := h.n * groups
	per := chunkGroups(total, h.k)
	var sr *transport.StreamReader
	if h.k > 1 {
		sr = transport.StreamFrom(ctx)
	}
	var span *spanKey // the key whose table spans frames, while in progress
	body := h.body
	for f := 0; f < h.k; f++ {
		g0 := f * per
		g1 := min(g0+per, total)
		if f > 0 {
			var err error
			if body, err = s.nextFrame(ctx, sr, h.geo, g1-g0); err != nil {
				// No more frames will arrive, or this one is malformed:
				// every key not yet applied is rejected, its record
				// untouched.
				for i := g0 / groups; i < h.n; i++ {
					if errs[i] == nil {
						errs[i] = err
					}
				}
				return
			}
		}
		// A key straddling the frame's start continues its span, and is
		// installed once its last group is in.
		if i := g0 / groups; g0%groups != 0 && span != nil {
			end := min(g1, (i+1)*groups)
			if err := s.feedSpan(ctx, h.geo, span, body[:(end-g0)*gl], g0-i*groups, end-i*groups); err != nil {
				errs[i], span = err, nil
			} else if end == (i+1)*groups {
				errs[i], span = s.accessOne(span.key, h.geo, span.table, labels[i*stride:(i+1)*stride], span), nil
			}
		}
		// Keys wholly inside the frame are applied at once.
		if i0, i1 := (g0+groups-1)/groups, g1/groups; i0 < i1 {
			s.applyKeys(ctx, h.geo, h.ids, i0, i1, body[(i0*groups-g0)*gl:(i1*groups-g0)*gl], labels, errs)
		}
		// A key straddling the frame's end starts its span.
		if j := g1 / groups; g1%groups != 0 && j*groups >= g0 {
			span, errs[j] = s.startSpan(ctx, h.geo, h.ids[j*lblIDLen:(j+1)*lblIDLen])
			if errs[j] == nil {
				if err := s.feedSpan(ctx, h.geo, span, body[(j*groups-g0)*gl:], 0, g1-j*groups); err != nil {
					errs[j], span = err, nil
				}
			}
		}
		if errs[h.n-1] != nil {
			// The last key is settled, so every key is: the remaining
			// frames drain as orphans.
			return
		}
	}
}

// admit runs one key's checks that precede any record work and returns
// its encoded key. The deadline budget is re-tested before every key,
// so a round that expires mid-flight stops burning trial decryptions on
// keys whose answers nobody will read. The ownership fence is per key
// too, so one stale-epoch access cannot fail its round mates. Either
// rejection leaves the record untouched (epoch.go, DESIGN.md §15).
func (s *LBLServer) admit(ctx context.Context, id []byte) (string, error) {
	if err := s.checkBudget(ctx); err != nil {
		return "", err
	}
	if err := s.checkEpoch(readClaim(id[prf.Size:])); err != nil {
		return "", err
	}
	return string(id[:prf.Size]), nil
}

// applyKeys applies keys [i0, i1), whose tables lie back to back in
// tables, fanned out across the kvstore's shards.
func (s *LBLServer) applyKeys(ctx context.Context, geo tableGeometry, ids []byte, i0, i1 int, tables, labels []byte, errs []error) {
	if i1-i0 == 1 {
		// The common one-key round: no fan-out closure to allocate.
		errs[i0] = s.applyKey(ctx, geo, ids, i0, tables, labels)
		return
	}
	tb := geo.tableBytes()
	forEachBatched(i1-i0, func(j int) {
		errs[i0+j] = s.applyKey(ctx, geo, ids, i0+j, tables[j*tb:(j+1)*tb], labels)
	})
}

// applyKey applies key i's whole table, decrypting it inside the store
// update.
func (s *LBLServer) applyKey(ctx context.Context, geo tableGeometry, ids []byte, i int, table, labels []byte) error {
	key, err := s.admit(ctx, ids[i*lblIDLen:(i+1)*lblIDLen])
	if err != nil {
		return err
	}
	stride := geo.groups * prf.Size
	return s.accessOne(key, geo, table, labels[i*stride:(i+1)*stride], nil)
}

// A spanKey is a key whose table spans frames, in progress. Its groups
// are trial-decrypted against a snapshot of its record as they land —
// a failure is a staleness rejection, the record untouched — and the
// whole table is kept for the install, which re-decrypts it if the
// record moved since the snapshot (a concurrent round for the same
// key, which a correct proxy never issues).
type spanKey struct {
	key      string
	snap     []byte
	rec      *lblRecord
	table    []byte
	labels   []byte // new labels decrypted so far
	dbits    []byte // new decryption bits, point-and-permute only
	attempts int64
}

// startSpan admits a spanning key and snapshots its record.
func (s *LBLServer) startSpan(ctx context.Context, geo tableGeometry, id []byte) (*spanKey, error) {
	key, err := s.admit(ctx, id)
	if err != nil {
		return nil, err
	}
	snap, err := s.store.Get(key)
	if errors.Is(err, kvstore.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	rec, err := parseLBLRecord(snap, geo.mode, geo.groups)
	if err != nil {
		return nil, err
	}
	sk := &spanKey{key: key, snap: snap, rec: rec, table: make([]byte, geo.tableBytes()), labels: make([]byte, geo.groups*prf.Size)}
	if geo.mode.hasDbits() {
		sk.dbits = make([]byte, geo.groups)
	}
	return sk, nil
}

// feedSpan takes groups [a, b) of a spanning key's table and
// trial-decrypts them against its snapshot.
func (s *LBLServer) feedSpan(ctx context.Context, geo tableGeometry, sk *spanKey, part []byte, a, b int) error {
	if err := s.checkBudget(ctx); err != nil {
		return err
	}
	copy(sk.table[a*geo.groupLen():], part)
	n, err := decryptRange(geo, sk.rec, sk.table, a, b, sk.labels, sk.dbits)
	sk.attempts += n
	return err
}

// nextFrame reads and validates the round's next continuation frame,
// which must carry count groups of geometry geo, and returns its
// groups. A read failure is an abort (no further frame can arrive)
// unless the handler's own deadline expired.
func (s *LBLServer) nextFrame(ctx context.Context, sr *transport.StreamReader, geo tableGeometry, count int) ([]byte, error) {
	if sr == nil {
		return nil, errors.New("core: " + streamAbortMarker + ": no continuation frames attached")
	}
	frame, err := sr.Next(ctx)
	if err != nil {
		if ctx.Err() != nil {
			s.expiredRounds.Add(1)
			return nil, errExpiredRound
		}
		return nil, fmt.Errorf("core: %s: %v", streamAbortMarker, err)
	}
	cgeo, c, body, err := readContinuation(frame)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %v", streamAbortMarker, err)
	}
	if cgeo.mode != geo.mode || cgeo.groups != geo.groups || c != count {
		return nil, fmt.Errorf("core: %s: continuation of %d groups (%v, %d per value) where %d (%v, %d) expected",
			streamAbortMarker, c, cgeo.mode, cgeo.groups, count, geo.mode, geo.groups)
	}
	return body, nil
}
