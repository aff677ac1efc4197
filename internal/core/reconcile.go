package core

import (
	"fmt"

	"ortoa/internal/transport"
)

// Counter reconciliation. The label schedule is counter-indexed, so
// LBL-ORTOA works only while the proxy's per-key counter ct matches
// the counter of the labels the server's record actually holds. Two
// crash scenarios break the match:
//
//   - The server restarts from older durable state (a crash under a
//     lossy fsync policy): its record holds labels for some ct* < ct.
//   - The proxy restarts from an older counter snapshot: its ct is
//     below the server's ct*.
//
// Either way every access to the key fails with the server's stale
// fencing rejection, forever — the §5.3.1 failure mode. When
// LBLConfig.ReconcileScan is positive the proxy treats a fresh stale
// rejection (no parked ambiguous round to explain it) as possible
// desynchronization and searches for the server's actual counter: it
// issues read-shaped probe accesses at candidate counters spiraling
// out from ct (ct-1, ct+1, ct-2, ct+2, …) up to ReconcileScan steps
// each way. Fencing makes probing safe — a probe keyed at the wrong
// counter is rejected with the record untouched — and the one probe
// that decrypts proves the server's position, advances the record one
// step as any read does, and rebases ct to match. The triggering
// access is then retried once at the reconciled counter.
//
// Obliviousness of recovery traffic: probes are always read-shaped
// and are triggered by the stale rejection alone, which the server
// emits identically for reads and writes. An adversary watching a
// recovery episode sees the same exchange sequence whatever the
// operation types involved, so crashes add no op-type leak (the
// recovery-path analogue of the §5.2 argument; asserted by
// TestRecoveryObliviousness).
//
// Under a lossy policy the server can regress while rounds are parked,
// in which case pending resolution's fencing inferences can commit a
// counter step the regressed server never saw. Reconciliation is also
// the backstop for that: the key's next access hits a fresh stale
// rejection and the scan re-locates the true counter.

// errReconcile wraps a reconciliation failure; callers see the
// original stale rejection context too.
func errReconcile(key string, err error) error {
	return fmt.Errorf("core: reconciling counter for %q: %w", key, err)
}

// reconcile locates the server's actual counter for key by probing and
// rebases entry.ct to it. On nil return the entry's counter is
// trustworthy again. The caller must hold entry.mu and must have seen
// a stale rejection for a round keyed at entry.ct with no pending
// round parked.
func (p *LBLProxy) reconcile(key string, entry *counterEntry) error {
	scan := p.cfg.ReconcileScan
	for d := uint64(1); d <= uint64(scan); d++ {
		for _, down := range []bool{true, false} {
			var cand uint64
			if down {
				if d > entry.ct {
					continue // counters never go below 0
				}
				cand = entry.ct - d
			} else {
				cand = entry.ct + d
			}
			hit, err := p.probeCounter(key, entry, cand)
			if err != nil {
				return err
			}
			if hit {
				p.mx.reconciledKeys.Inc()
				return nil
			}
		}
	}
	return errReconcile(key, fmt.Errorf("server counter not within %d of %d", scan, entry.ct))
}

// probeCounter issues one read-shaped access keyed at counter cand.
// A hit (the server's record was at cand) advances the record to
// cand+1 and rebases entry.ct; a stale rejection means cand is wrong
// and the record is untouched. An ambiguous transport failure parks
// the probe as the entry's pending round — rebased to cand, so the
// standard resolution path applies — and surfaces the error.
func (p *LBLProxy) probeCounter(key string, entry *counterEntry, cand uint64) (bool, error) {
	p.mx.reconcileProbes.Inc()
	resp, parked, err := p.probe(key, cand)
	switch {
	case err == nil:
		if _, rerr := p.recover(OpRead, key, nil, cand+1, resp); rerr != nil {
			return false, errReconcile(key, rerr)
		}
		entry.ct = cand + 1
		return true, nil
	case isStaleRound(err):
		return false, nil // wrong candidate; record untouched
	case transport.Ambiguous(err):
		// The probe may have executed. Rebase to the candidate and park
		// the probe so the key's next access settles it exactly like any
		// other ambiguous round.
		entry.ct = cand
		entry.pending = parked
		p.mx.pendingSaved.Inc()
		return false, errReconcile(key, err)
	case transport.IsReplayEvicted(err):
		// Executed, response gone: the probe decrypted, so cand was
		// right and the record is now at cand+1.
		entry.ct = cand + 1
		return true, nil
	default:
		return false, errReconcile(key, err)
	}
}
