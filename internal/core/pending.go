package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// Ambiguous-round resolution. An LBL access whose transport call fails
// ambiguously (lost connection, deadline) may or may not have executed
// on the server. The proxy cannot simply retry with a fresh request:
// the counter-indexed label schedule (§5.2) means a re-execution at
// the same counter value would install new labels twice and the server
// would then hold labels the proxy's recovery cannot recognize —
// permanent desynchronization, the one failure §5.3.1 flags as
// unrecoverable.
//
// Instead the proxy parks the exact round — request id and, for a
// one-frame round, the request bytes (tables embed shuffle randomness,
// so they cannot be rebuilt bit-identically) — on the key's counter
// entry. The next access to that key first replays the parked round
// under the same request id; a multi-frame round, which parks no
// bytes, is settled by a probe (probePending) instead.
// The transport's at-most-once dedup cache makes the replay safe:
// whether the original executed or was lost, the replay yields the
// outcome of exactly one execution. The proxy then commits or discards
// the counter increment accordingly, and only after that builds the
// new access at a counter value it can trust.
//
// Two properties of the protocol make resolution total, not just
// likely. First, rounds are self-fencing: a table is keyed by the
// counter-ct labels, so out of all rounds ever built for a key at
// counter ct, at most ONE can apply — the server rejects the rest as
// stale (the staleTableMarker errors in lblserver.go). A stale
// rejection during resolution is therefore proof that some round at
// ct already executed, and the counter can be committed. Second, the
// transport distinguishes "executed but response evicted"
// (transport.IsReplayEvicted) from never-executed, which also proves
// execution. Between replays, fencing, and eviction tombstones, every
// resolution path ends with the proxy knowing whether ct advanced.

// A pendingRound is one key's share of an ambiguous round, parked on
// the key's counterEntry.
type pendingRound struct {
	id uint64 // transport request id; a replay reuses it
	// req is the exact request of a one-frame round, replayed byte for
	// byte under the original id. It is nil for a multi-frame round,
	// whose frames went out of one pooled chunk buffer: the server
	// applies such a round's keys as their frames land, so it settles
	// by probing the key instead (probePending).
	req   []byte
	n     int // keys in the round
	pos   int // this key's index within the round
	op    Op
	value []byte // written value (private copy), for write-back verification
}

// pendingValue copies newValue for parking on a pendingRound; the
// caller may reuse its slice after Access returns.
func pendingValue(op Op, newValue []byte) []byte {
	if op != OpWrite {
		return nil
	}
	return append([]byte(nil), newValue...)
}

// resolvePending settles entry's parked round so the counter is
// trustworthy again. On return with nil error the round's outcome is
// known — the counter was committed (a round at ct executed) or left
// unchanged (the server provably rejected it without touching the
// record) — and the pending mark is cleared. A non-nil error means
// either the network is still failing (a pending round remains parked
// for the next access) or the outcome failed integrity checks
// (pending dropped; replaying a tampered round cannot help). The
// caller must hold entry.mu.
func (p *LBLProxy) resolvePending(key string, entry *counterEntry) error {
	pr := entry.pending
	if pr.req == nil {
		return p.probePending(key, entry)
	}
	resp, err := p.client.CallContextID(context.Background(), pr.id, MsgLBLAccess, pr.req)
	switch {
	case err == nil:
		// One execution's response in hand — the original's, replayed
		// from the dedup cache, or the round executing just now.
	case transport.Ambiguous(err):
		return fmt.Errorf("core: round for %q still unresolved: %w", key, err)
	case transport.IsReplayEvicted(err):
		// The round executed; only its response bytes are gone. For a
		// one-key round that alone settles the counter. For an n-key
		// round the per-key statuses are lost with the response, so
		// probe the key's counter state instead.
		if pr.n > 1 {
			return p.probePending(key, entry)
		}
		return p.settlePending(entry, true)
	case isStaleRound(err):
		// Fencing rejection: the server's labels have moved past this
		// table's counter, which only a round at ct executing can
		// cause. The parked round is that round (or was fenced out by
		// it — for a one-key round they are the same round).
		return p.settlePending(entry, true)
	default:
		// Any other RemoteError is the outcome of the one execution:
		// the server rejected the round and left the record untouched.
		return p.settlePending(entry, false)
	}
	var labels []byte
	var remoteMsg string
	err = eachResult(resp, pr.n, p.cfg.Groups()*prf.Size, func(i int, l []byte, msg string) {
		if i == pr.pos {
			labels, remoteMsg = l, msg
		}
	})
	if err != nil {
		entry.pending = nil
		return fmt.Errorf("core: resolving round for %q: %w", key, err)
	}
	if remoteMsg != "" {
		// Per-key rejection inside an n-key round. A stale rejection is
		// fencing proof that this key's access (or its original)
		// executed at ct; anything else left the record untouched.
		return p.settlePending(entry, strings.Contains(remoteMsg, staleTableMarker))
	}
	if _, err := p.recover(pr.op, key, pr.value, entry.ct+1, labels); err != nil {
		entry.pending = nil
		return fmt.Errorf("core: resolving round for %q: %w", key, err)
	}
	return p.settlePending(entry, true)
}

// settlePending clears the parked round, committing its counter step
// if a round at ct is known to have executed.
func (p *LBLProxy) settlePending(entry *counterEntry, executed bool) error {
	if executed {
		entry.ct++
	}
	entry.pending = nil
	p.mx.pendingResolved.Inc()
	return nil
}

// probePending settles a parked round whose per-key outcome cannot be
// replayed (a multi-frame round, or an n-key round whose cached
// response was evicted) by issuing a fresh read keyed at the current
// counter. Fencing makes the probe decisive: at most one round keyed
// at ct can ever execute, so either the probe executes (the parked
// round never did, and now never can) or the probe is rejected stale
// (the parked round did). Both outcomes advance the counter exactly
// one step; they differ only in whether the parked operation applied,
// which the original caller already treats as unknown.
func (p *LBLProxy) probePending(key string, entry *counterEntry) error {
	resp, parked, err := p.probe(key, entry.ct)
	switch {
	case err == nil:
		if _, rerr := p.recover(OpRead, key, nil, entry.ct+1, resp); rerr != nil {
			entry.pending = nil
			return fmt.Errorf("core: probing round for %q: %w", key, rerr)
		}
		return p.settlePending(entry, true) // the probe's own step
	case transport.Ambiguous(err):
		// The probe's outcome is itself unknown. Park the probe in
		// place of the original round: it lives in the same two-state
		// space, so the next access resolves it the ordinary way.
		entry.pending = parked
		return fmt.Errorf("core: round for %q still unresolved: %w", key, err)
	case isStaleRound(err) || transport.IsReplayEvicted(err):
		return p.settlePending(entry, true)
	case errors.As(err, new(*transport.RemoteError)):
		entry.pending = nil
		return fmt.Errorf("core: probing round for %q: %w", key, err)
	default:
		// The probe never went out (no live connection, client
		// closed): the parked round stays parked.
		return fmt.Errorf("core: round for %q still unresolved: %w", key, err)
	}
}

// probe sends one read-shaped round for key keyed at counter ct — a
// resolution or reconciliation probe, framed like any one-key access.
// When the call is ambiguous, parked is the round to park in its place.
func (p *LBLProxy) probe(key string, ct uint64) (resp []byte, parked *pendingRound, err error) {
	keys := []roundKey{{op: OpRead, key: key, ct: ct}}
	id := p.client.NextID()
	resp, req, err := p.sendRound(context.Background(), nil, id, keys)
	if transport.Ambiguous(err) {
		return nil, parkRound(id, req, keys, 0), err
	}
	wire.PutWriter(req)
	return resp, nil, err
}

// isStaleRound reports whether err is the server's fencing rejection:
// an access table keyed at a counter whose labels the server has
// already replaced.
func isStaleRound(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, staleTableMarker)
}
