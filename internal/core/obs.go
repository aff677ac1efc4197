package core

import (
	"encoding/hex"

	"ortoa/internal/obs"
)

// This file holds the protocol layer's observability: each protocol's
// timed access paths, declared once as obs.StageSets, and the metric
// handles each protocol side registers. Every component has one
// Instrument(reg, proc) call, made before it serves traffic; a nil
// registry leaves it uninstrumented, and its stage recorders then never
// read the clock (see obs.Recorder).
//
// Stage names follow the step structure of the paper: LBL stages are
// the proxy-side steps 1.1–1.5 and 3.1–3.2 of §5.2 plus the wire time
// between them, which together make up the per-access latency that
// Fig 3 decomposes. DESIGN.md §8 maps every metric to its paper
// stage.

// LBLStages is one LBL proxy access (§5.2): per-key counter acquisition
// (step 1.1, the serialization point), the encryption-table build
// (steps 1.2–1.5), the wire round trip (request out to response in),
// and label→value recovery with the §5.4 integrity check (3.1–3.2). In
// a round of k > 1 frames, which seals later frames while earlier ones
// are on the wire, table_build ends when the last frame is sealed and
// rpc runs from there until the response lands (DESIGN.md §16).
var LBLStages = obs.StageSet{Root: "lbl_access", Stages: []string{"counter_acquire", "table_build", "rpc", "label_recover"}}

// lblBatchStages is the same pipeline for a round of n > 1 keys.
var lblBatchStages = obs.StageSet{Root: "lbl_access_batch", Stages: LBLStages.Stages}

// The LBL stages, as indices into LBLStages.Stages.
const (
	lblAcquire = iota
	lblBuild
	lblRPC
	lblRecover
)

// teeStages and fheStages are the trusted sides of TEE-ORTOA (§4.1:
// seal, round trip, unseal) and FHE-ORTOA (§3.1: encrypt, round trip,
// decrypt); both use the stage indices below.
var (
	teeStages = obs.StageSet{Root: "tee_access", Stages: []string{"seal", "rpc", "open"}}
	fheStages = obs.StageSet{Root: "fhe_access", Stages: []string{"encrypt", "rpc", "decrypt"}}
)

const (
	clientPrepare = iota
	clientRPC
	clientFinish
)

// teeServerStages and fheServerStages are the servers' handler work:
// the TEE host's store update with its one enclave crossing, and the
// FHE server's homomorphic evaluation of Pcr'.
var (
	teeServerStages = obs.StageSet{Root: "server_ecall", Stages: []string{"ecall"}, Continues: true}
	fheServerStages = obs.StageSet{Root: "server_fhe_eval", Continues: true}
)

// aggStages is one access through the aggregation front end: waiting
// for its window to close, then the window's shared batch round trip.
var aggStages = obs.StageSet{Root: "agg_session", Stages: []string{"window_wait", "batch_rpc"}}

const (
	aggWait = iota
	aggRPC
)

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

// lblProxyObs instruments the trusted LBL proxy: the stage timers of
// single accesses and batch rounds, plus the recovery-path counters.
type lblProxyObs struct {
	single *obs.StageTimer // one Access: stages, end-to-end latency, errors, slow log
	batch  *obs.StageTimer // one round of n > 1 keys: stages only

	batchKeys *obs.Counter // accesses carried in batch rounds

	streamRounds *obs.Counter // rounds sent as more than one frame
	streamChunks *obs.Counter // frames of those rounds

	pendingSaved    *obs.Counter // rounds parked after ambiguous transport failures
	pendingResolved *obs.Counter // parked rounds settled by at-most-once replay

	reconcileProbes *obs.Counter // read-shaped probes sent to re-locate a server counter
	reconciledKeys  *obs.Counter // keys whose counter was rebased after crash desync

	epochClaims  *obs.Counter // counter ranges claimed (adoption or startup, epoch.go)
	fencedRounds *obs.Counter // accesses rejected by the server's epoch fence
}

// Instrument instruments the proxy as part of process proc: it
// registers the access-stage metrics (ortoa_lbl_*) with reg and traces
// every access in proc's tracer, its trace ids riding the request
// frames so the server's spans join the same trace. Call before
// serving accesses; a nil registry leaves the proxy uninstrumented at
// zero cost.
func (p *LBLProxy) Instrument(reg *obs.Registry, proc string) {
	if reg == nil {
		return
	}
	single := LBLStages.Timer(reg, proc, "ortoa_lbl_stage_seconds", "LBL proxy per-access stage latency (§5.2 steps)")
	single.Total = reg.Histogram("ortoa_lbl_access_seconds", "LBL proxy end-to-end access latency")
	single.Errors = reg.Counter("ortoa_lbl_access_errors_total", "LBL accesses that failed")
	single.Slow = reg.SlowLog("lbl_access", 32)
	p.mx = lblProxyObs{
		single: single,
		batch:  lblBatchStages.Timer(reg, proc, "ortoa_lbl_batch_stage_seconds", "LBL proxy per-round batch pipeline stage latency"),

		batchKeys: reg.Counter("ortoa_lbl_batch_accesses_total", "accesses carried in batch rounds"),

		streamRounds: reg.Counter("ortoa_lbl_stream_rounds_total", "rounds sent as more than one request frame (StreamChunkBytes)"),
		streamChunks: reg.Counter("ortoa_lbl_stream_chunks_total", "request frames of multi-frame rounds emitted by the proxy"),

		pendingSaved:    reg.Counter("ortoa_lbl_pending_rounds_total", "LBL rounds parked after an ambiguous transport failure"),
		pendingResolved: reg.Counter("ortoa_lbl_pending_resolved_total", "parked LBL rounds settled by at-most-once replay"),

		reconcileProbes: reg.Counter("ortoa_lbl_reconcile_probes_total", "read-shaped probes sent to re-locate a server counter after crash desync"),
		reconciledKeys:  reg.Counter("ortoa_lbl_reconciled_keys_total", "keys whose counter was rebased by reconciliation"),

		epochClaims:  reg.Counter("ortoa_lbl_epoch_claims_total", "counter-range ownership claims issued (startup or failover adoption)"),
		fencedRounds: reg.Counter("ortoa_lbl_fenced_rounds_total", "accesses rejected by the server's epoch fence before adoption"),
	}
	reg.GaugeFunc("ortoa_lbl_owned_ranges", "counter ranges this proxy has claimed (epoch > 0)", p.OwnedRanges)
}

// Instrument registers the server's metrics (ortoa_lbl_server_*) with
// reg, including scrape-time views of the ops and decrypt-attempt
// totals the server already tracks. The server_decrypt span of a traced
// round continues the caller's trace through the handler's context, so
// the process name is not needed. Call before Register.
func (s *LBLServer) Instrument(reg *obs.Registry, _ string) {
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
	s.access = reg.Histogram("ortoa_lbl_server_access_seconds", "store read + label swap per access (§5.2 steps 2.1–2.2)")
}

// clientTimer binds a trusted client's stage set (teeStages or
// fheStages) to reg: stage histograms, end-to-end latency and failures,
// under the protocol's metric prefix.
func clientTimer(set *obs.StageSet, reg *obs.Registry, proc, prefix, name, section string) *obs.StageTimer {
	t := set.Timer(reg, proc, prefix+"_stage_seconds", name+" client per-access stage latency ("+section+")")
	t.Total = reg.Histogram(prefix+"_access_seconds", name+" end-to-end access latency")
	t.Errors = reg.Counter(prefix+"_access_errors_total", name+" accesses that failed")
	return t
}

// Instrument instruments the client as part of process proc: its
// access-stage metrics (ortoa_fhe_*) and traces. Call before serving
// accesses.
func (c *FHEClient) Instrument(reg *obs.Registry, proc string) {
	if reg == nil {
		return
	}
	c.mx = clientTimer(&fheStages, reg, proc, "ortoa_fhe", "FHE", "§3.1")
}

// Instrument registers the server's metrics (ortoa_fhe_server_*) with
// reg. Call before Register.
func (s *FHEServer) Instrument(reg *obs.Registry, proc string) {
	if reg == nil {
		return
	}
	s.mx = fheServerStages.Timer(reg, proc, "", "")
	s.mx.Total = reg.Histogram("ortoa_fhe_server_eval_seconds", "homomorphic Pcr' evaluation per access (§3.1)")
}

// Instrument instruments the client as part of process proc: its
// access-stage metrics (ortoa_tee_*) and traces. Call before serving
// accesses.
func (c *TEEClient) Instrument(reg *obs.Registry, proc string) {
	if reg == nil {
		return
	}
	c.mx = clientTimer(&teeStages, reg, proc, "ortoa_tee", "TEE", "§4.1")
}

// Instrument registers the server's metrics (ortoa_tee_server_*) with
// reg: the host-side handler and the enclave crossing it pays per
// access. Call before Register.
func (s *TEEServer) Instrument(reg *obs.Registry, proc string) {
	if reg == nil {
		return
	}
	s.mx = teeServerStages.Timer(reg, proc, "", "")
	s.mx.Total = reg.Histogram("ortoa_tee_server_access_seconds", "store read + enclave selection per access (§4.1)")
	s.mx.Stages[0] = reg.Histogram("ortoa_tee_server_ecall_seconds", "enclave crossing (ECall) latency")
}
