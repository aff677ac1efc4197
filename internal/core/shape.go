package core

import "ortoa/internal/transport"

// ShapeClassify is the message set's classifier for every instrumented
// transport end.
func init() { transport.ClassifyShapes(ShapeClassify) }

// ShapeClassify is the transport.ShapeClassifier for the ORTOA message
// set: it maps each access frame to the public parameters its length
// is allowed to depend on, so the ShapeAuditor can pin "all access
// frames of a given class are byte-identical in length" as a live
// invariant (§2.2, §5.3.2).
//
//   - MsgLBLAccess: a head frame's class folds the table geometry (mode,
//     group count — entry length follows from the mode), the key count n
//     and the frame count k, all in the clear in the frame; a
//     continuation frame's folds the geometry and its group count. Every
//     request frame is strict. The one response rides on the head's
//     class: strict for n = 1 (a fixed block of labels), only
//     distribution-tracked for n > 1, whose per-key statuses carry error
//     strings.
//   - MsgTEEAccess: fixed-size sealed request and response per
//     deployment; strict both ways.
//   - Everything else is observed but never length-checked: MsgClientAccess
//     is the client→proxy hop inside the trust boundary, where request
//     lengths legitimately differ between reads and writes; the 2RTT
//     baseline leaks operation types by design; FHE ciphertext sizes
//     vary with degree growth; loads and setup messages are unbounded.
func ShapeClassify(msgType byte, payload []byte) (class uint64, strictReq, strictResp bool) {
	switch msgType {
	case MsgLBLAccess:
		if len(payload) > 0 && payload[0] == lblContinuation {
			geo, count, _, err := readContinuation(payload)
			if err != nil {
				return 0, false, false
			}
			// The frame's position is deliberately not folded in: every
			// continuation of a class must be the same length. Only a
			// round's short last frame differs, and its smaller count
			// gives it its own class.
			return 1<<63 ^ uint64(geo.mode)<<56 ^ uint64(geo.groups)<<32 ^ uint64(count), true, false
		}
		h, err := readHead(payload)
		if err != nil {
			return 0, false, false
		}
		return lblShapeClass(h), true, h.n == 1
	case MsgTEEAccess:
		return 0, true, true
	case MsgEpochClaim:
		// Ownership claims are fixed-width both ways (epoch.go), and
		// carry no secrets — but pinning them strict proves failover
		// traffic is as shape-invariant as access traffic.
		return 0, true, true
	}
	return 0, false, false
}

// lblShapeClass packs a head's public parameters into one class value,
// disjoint from continuation classes by the clear top bit. Collisions
// would only ever merge classes — which can produce a false alarm,
// never mask a real divergence — and the fields occupy disjoint bit
// ranges for every realistic configuration (groups < 2^22, n ≤ 2^16,
// k < 2^20).
func lblShapeClass(h lblHead) uint64 {
	return uint64(h.geo.mode)<<58 ^ uint64(h.geo.groups)<<36 ^ uint64(h.n)<<20 ^ uint64(h.k)
}
