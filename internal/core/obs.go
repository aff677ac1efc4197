package core

import (
	"encoding/hex"

	"ortoa/internal/obs"
)

// This file holds the protocol layer's observability bundles: one
// value-typed struct of metric handles per protocol side, embedded in
// the proxy/client/server structs. The zero value (all-nil handles,
// enabled=false) is the "observability off" state, so uninstrumented
// hot paths pay one branch per stage and never read the clock (see
// obs.Stopwatch). Instrument methods must be called before the
// component serves traffic — the bundle is written without
// synchronization.
//
// Stage names follow the step structure of the paper: LBL stages are
// the proxy-side steps 1.1–1.5 and 3.1–3.2 of §5.2 plus the wire time
// between them, which together make up the per-access latency that
// Fig 3 decomposes. DESIGN.md §8 maps every metric to its paper
// stage.

// traceLabel renders an encoded (PRF-image) key prefix for slow-trace
// labels. Plaintext keys never reach the trace log — the label is the
// same pseudonym the untrusted server sees on the wire.
func traceLabel(encKey []byte) string {
	n := 4
	if len(encKey) < n {
		n = len(encKey)
	}
	return "ek=" + hex.EncodeToString(encKey[:n])
}

// lblProxyObs instruments the trusted LBL proxy: one histogram per
// access stage, end-to-end latency, the batch pipeline's stages, and
// a slow-trace log of the worst accesses.
type lblProxyObs struct {
	enabled bool

	single lblStages      // one Access
	batch  lblStages      // one batch round
	e2e    *obs.Histogram // sum of a single access's four stages
	errors *obs.Counter

	batchKeys *obs.Counter // accesses carried in batch rounds

	streamRounds *obs.Counter // rounds sent as more than one frame
	streamChunks *obs.Counter // frames of those rounds

	pendingSaved    *obs.Counter // rounds parked after ambiguous transport failures
	pendingResolved *obs.Counter // parked rounds settled by at-most-once replay

	reconcileProbes *obs.Counter // read-shaped probes sent to re-locate a server counter
	reconciledKeys  *obs.Counter // keys whose counter was rebased after crash desync

	epochClaims  *obs.Counter // counter ranges claimed (adoption or startup, epoch.go)
	fencedRounds *obs.Counter // accesses rejected by the server's epoch fence

	slow *obs.SlowLog
}

// lblStages is one histogram per access stage: per-key counter
// acquisition (the serialization point), the encryption-table build
// (steps 1.1–1.5), the wire round trip (request out to response in),
// and label→bit recovery with the §5.4 integrity check.
type lblStages struct {
	acquire, build, rpc, recover *obs.Histogram
}

// Instrument registers the proxy's access-stage metrics
// (ortoa_lbl_*) with reg. Call before serving accesses; a nil
// registry leaves the proxy uninstrumented at zero cost.
func (p *LBLProxy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stages := func(metric, help string) lblStages {
		stage := func(name string) *obs.Histogram {
			return reg.Histogram(metric+`{stage="`+name+`"}`, help)
		}
		return lblStages{stage("counter_acquire"), stage("table_build"), stage("rpc"), stage("label_recover")}
	}
	p.mx = lblProxyObs{
		enabled: true,
		single:  stages("ortoa_lbl_stage_seconds", "LBL proxy per-access stage latency (§5.2 steps)"),
		batch:   stages("ortoa_lbl_batch_stage_seconds", "LBL proxy per-round batch pipeline stage latency"),
		e2e:     reg.Histogram("ortoa_lbl_access_seconds", "LBL proxy end-to-end access latency"),
		errors:  reg.Counter("ortoa_lbl_access_errors_total", "LBL accesses that failed"),

		batchKeys: reg.Counter("ortoa_lbl_batch_accesses_total", "accesses carried in batch rounds"),

		streamRounds: reg.Counter("ortoa_lbl_stream_rounds_total", "rounds sent as more than one request frame (StreamChunkBytes)"),
		streamChunks: reg.Counter("ortoa_lbl_stream_chunks_total", "request frames of multi-frame rounds emitted by the proxy"),

		pendingSaved:    reg.Counter("ortoa_lbl_pending_rounds_total", "LBL rounds parked after an ambiguous transport failure"),
		pendingResolved: reg.Counter("ortoa_lbl_pending_resolved_total", "parked LBL rounds settled by at-most-once replay"),

		reconcileProbes: reg.Counter("ortoa_lbl_reconcile_probes_total", "read-shaped probes sent to re-locate a server counter after crash desync"),
		reconciledKeys:  reg.Counter("ortoa_lbl_reconciled_keys_total", "keys whose counter was rebased by reconciliation"),

		epochClaims:  reg.Counter("ortoa_lbl_epoch_claims_total", "counter-range ownership claims issued (startup or failover adoption)"),
		fencedRounds: reg.Counter("ortoa_lbl_fenced_rounds_total", "accesses rejected by the server's epoch fence before adoption"),

		slow: reg.SlowLog("lbl_access", 32),
	}
	reg.GaugeFunc("ortoa_lbl_owned_ranges", "counter ranges this proxy has claimed (epoch > 0)", p.OwnedRanges)
}

// lblServerObs instruments the untrusted LBL server's handler work:
// the atomic read-decrypt-install of steps 2.1–2.2.
type lblServerObs struct {
	enabled bool
	access  *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_lbl_server_*) with
// reg, including scrape-time views of the ops and decrypt-attempt
// totals the server already tracks. Call before Register.
func (s *LBLServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("ortoa_lbl_server_ops_total", "LBL accesses served", s.ops.Load)
	reg.CounterFunc("ortoa_lbl_server_decrypt_attempts_total",
		"authenticated decryptions attempted (the cost §10.2 halves)", s.decryptAttempts.Load)
	reg.CounterFunc("ortoa_lbl_server_fenced_rounds_total",
		"accesses rejected by the epoch fence (stale range ownership)", s.fencedRounds.Load)
	reg.CounterFunc("ortoa_lbl_server_epoch_bumps_total",
		"range-epoch installs (claims plus relearned epochs after restart)", s.epochBumps.Load)
	reg.GaugeFunc("ortoa_lbl_server_max_epoch",
		"highest range ownership epoch granted", func() int64 { return int64(s.maxEpoch.Load()) })
	reg.CounterFunc("ortoa_lbl_server_expired_rounds_total",
		"accesses dropped because their deadline budget expired before trial decryption", s.expiredRounds.Load)
	s.mx = lblServerObs{
		enabled: true,
		access:  reg.Histogram("ortoa_lbl_server_access_seconds", "store read + label swap per access (§5.2 steps 2.1–2.2)"),
	}
}

// fheClientObs instruments the trusted FHE side's access stages.
type fheClientObs struct {
	enabled bool
	encrypt *obs.Histogram // selector + value encryption and marshalling
	rpc     *obs.Histogram
	decrypt *obs.Histogram // result decryption and decoding
	e2e     *obs.Histogram
	errors  *obs.Counter
}

// Instrument registers the client's access-stage metrics (ortoa_fhe_*)
// with reg. Call before serving accesses.
func (c *FHEClient) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(`ortoa_fhe_stage_seconds{stage="`+name+`"}`,
			"FHE client per-access stage latency (§3.1)")
	}
	c.mx = fheClientObs{
		enabled: true,
		encrypt: stage("encrypt"),
		rpc:     stage("rpc"),
		decrypt: stage("decrypt"),
		e2e:     reg.Histogram("ortoa_fhe_access_seconds", "FHE end-to-end access latency"),
		errors:  reg.Counter("ortoa_fhe_access_errors_total", "FHE accesses that failed"),
	}
}

// fheServerObs instruments the homomorphic evaluation of Pcr'.
type fheServerObs struct {
	enabled bool
	eval    *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_fhe_server_*) with
// reg. Call before Register.
func (s *FHEServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mx = fheServerObs{
		enabled: true,
		eval:    reg.Histogram("ortoa_fhe_server_eval_seconds", "homomorphic Pcr' evaluation per access (§3.1)"),
	}
}

// teeClientObs instruments the trusted TEE side's access stages.
type teeClientObs struct {
	enabled bool
	seal    *obs.Histogram // selector + value sealing
	rpc     *obs.Histogram
	open    *obs.Histogram // result unsealing + length check
	e2e     *obs.Histogram
	errors  *obs.Counter
}

// Instrument registers the client's access-stage metrics (ortoa_tee_*)
// with reg. Call before serving accesses.
func (c *TEEClient) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(`ortoa_tee_stage_seconds{stage="`+name+`"}`,
			"TEE client per-access stage latency (§4.1)")
	}
	c.mx = teeClientObs{
		enabled: true,
		seal:    stage("seal"),
		rpc:     stage("rpc"),
		open:    stage("open"),
		e2e:     reg.Histogram("ortoa_tee_access_seconds", "TEE end-to-end access latency"),
		errors:  reg.Counter("ortoa_tee_access_errors_total", "TEE accesses that failed"),
	}
}

// teeServerObs instruments the host-side handler and the enclave
// crossing it pays per access.
type teeServerObs struct {
	enabled bool
	access  *obs.Histogram
	ecall   *obs.Histogram
}

// Instrument registers the server's metrics (ortoa_tee_server_*) with
// reg. Call before Register.
func (s *TEEServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mx = teeServerObs{
		enabled: true,
		access:  reg.Histogram("ortoa_tee_server_access_seconds", "store read + enclave selection per access (§4.1)"),
		ecall:   reg.Histogram("ortoa_tee_server_ecall_seconds", "enclave crossing (ECall) latency"),
	}
}
