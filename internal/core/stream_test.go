package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// These tests exercise rounds sent as k > 1 frames (a chunk budget
// smaller than the tables): correctness of streamed single and batch
// accesses, the obliviousness of the per-frame wire view, parity with
// the simulator, and ambiguity resolution when a stream dies
// mid-flight.

// streamCfg returns an LBL config whose table spans roughly nChunks
// stream chunks.
func streamCfg(mode LBLMode, valueSize, nChunks int) LBLConfig {
	cfg := LBLConfig{ValueSize: valueSize, Mode: mode}
	cfg.StreamChunkBytes = cfg.TableBytes() / nChunks
	if cfg.StreamChunkBytes < 1 {
		cfg.StreamChunkBytes = 1
	}
	return cfg
}

func newLBLStream(t *testing.T, cfg LBLConfig) (*rig, *LBLProxy, *LBLServer) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy, srv
}

func TestLBLStreamReadWrite(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := streamCfg(mode, 8, 4)
			if k, _ := cfg.frames(1); k == 1 {
				t.Fatalf("config does not stream: budget %dB, table %dB", cfg.StreamChunkBytes, cfg.TableBytes())
			}
			r, proxy, _ := newLBLStream(t, cfg)
			loadData(t, r, proxy, map[string][]byte{"k": bytes.Repeat([]byte{7}, 8)})
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{7}, 8)) {
				t.Errorf("streamed read = %v", got)
			}
			current := bytes.Repeat([]byte{7}, 8)
			for i := 0; i < 12; i++ {
				if i%3 == 0 {
					current = bytes.Repeat([]byte{byte(i + 1)}, 8)
					if _, _, err := proxy.Access(OpWrite, "k", current); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				} else {
					got, _, err := proxy.Access(OpRead, "k", nil)
					if err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
					if !bytes.Equal(got, current) {
						t.Fatalf("access %d: read %v, want %v", i, got, current)
					}
				}
			}
		})
	}
}

func TestLBLStreamStatsAndSingleCall(t *testing.T) {
	// A streamed access is still ONE logical RPC (the paper's one-round
	// claim), spread over k frames, and its stats account the streamed
	// framing exactly.
	cfg := streamCfg(LBLPointPermute, 8, 4)
	r, proxy, _ := newLBLStream(t, cfg)
	loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})

	frames := 0
	r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
		if msgType == MsgLBLAccess {
			frames++
		}
	})
	before := r.client.Stats().Calls
	_, stats, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.client.Stats().Calls - before; got != 1 {
		t.Errorf("streamed access made %d logical calls, want 1", got)
	}
	if want, _ := cfg.frames(1); frames != want {
		t.Errorf("streamed access crossed as %d frames, want %d (head + continuations)", frames, want)
	}
	if stats.PrepBytes != cfg.RequestBytes(1) {
		t.Errorf("PrepBytes = %d, want %d", stats.PrepBytes, cfg.RequestBytes(1))
	}
	if stats.RespBytes != cfg.Groups()*prf.Size {
		t.Errorf("RespBytes = %d, want %d", stats.RespBytes, cfg.Groups()*prf.Size)
	}
}

func TestLBLStreamFallbackMonolithic(t *testing.T) {
	// A chunk budget the whole table fits in must send the access as
	// one frame: no continuation frames on the wire.
	cfg := LBLConfig{ValueSize: 8, Mode: LBLPointPermute}
	cfg.StreamChunkBytes = cfg.TableBytes() // one chunk: no overlap to win
	if k, _ := cfg.frames(1); k != 1 {
		t.Fatalf("single-chunk config frames an access as %d frames", k)
	}
	r, proxy, _ := newLBLStream(t, cfg)
	loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})
	frames := 0
	r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
		if msgType == MsgLBLAccess {
			frames++
		}
	})
	if _, _, err := proxy.Access(OpWrite, "k", bytes.Repeat([]byte{1}, 8)); err != nil {
		t.Fatal(err)
	}
	if frames != 1 {
		t.Errorf("single-chunk access used %d frames, want 1", frames)
	}
}

func TestLBLStreamBatch(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 2)
	const n = 9
	if k, _ := cfg.frames(n); k == 1 {
		t.Fatalf("batch of %d does not stream under budget %dB", n, cfg.StreamChunkBytes)
	}
	r, proxy, _ := newLBLStream(t, cfg)
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		data[fmt.Sprintf("k%d", i)] = bytes.Repeat([]byte{byte(i)}, 8)
	}
	loadData(t, r, proxy, data)

	var writes []BatchOp
	for i := 0; i < n; i++ {
		writes = append(writes, BatchOp{Op: OpWrite, Key: fmt.Sprintf("k%d", i), Value: bytes.Repeat([]byte{byte(0x40 + i)}, 8)})
	}
	if _, _, err := proxy.AccessBatch(writes); err != nil {
		t.Fatal(err)
	}
	var reads []BatchOp
	for i := 0; i < n; i++ {
		reads = append(reads, BatchOp{Op: OpRead, Key: fmt.Sprintf("k%d", i)})
	}
	values, _, err := proxy.AccessBatch(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if want := bytes.Repeat([]byte{byte(0x40 + i)}, 8); !bytes.Equal(v, want) {
			t.Errorf("batch read %d = %v, want %v", i, v, want)
		}
	}
}

func lblStreamObsRig(cfg LBLConfig) func(t *testing.T) (*rig, Accessor) {
	return func(t *testing.T) (*rig, Accessor) {
		r, proxy, _ := newLBLStream(t, cfg)
		data := map[string][]byte{}
		for i := 0; i < 4; i++ {
			data[fmt.Sprintf("key-%02d", i)] = make([]byte, cfg.ValueSize)
		}
		loadData(t, r, proxy, data)
		return r, proxy
	}
}

// TestObliviousnessLBLStream extends the adversary's-view comparison
// to the streamed path: every frame of a streamed access — the head
// and each continuation — is observed individually, and the per-frame
// multisets of (type, reqLen, respLen) must be identical between pure
// reads and pure writes.
func TestObliviousnessLBLStream(t *testing.T) {
	const valueSize = 8
	const ops = 8
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := streamCfg(mode, valueSize, 4)
			reads := observedRun(t, lblStreamObsRig(cfg), OpRead, valueSize, ops)
			writes := observedRun(t, lblStreamObsRig(cfg), OpWrite, valueSize, ops)
			assertIdenticalViews(t, reads, writes)
			// The streamed path was genuinely on: more frames than
			// accesses, in the exact k frames each.
			k, _ := cfg.frames(1)
			want := ops * k
			if len(reads) != want {
				t.Errorf("observed %d stream frames for %d accesses, want %d", len(reads), ops, want)
			}
		})
	}
}

// TestObliviousnessLBLStreamTraced re-runs the streamed comparison
// with tracing armed on every hop and shape auditors shared across the
// read and write runs: per-class frame lengths must be pinned across
// both runs, traced or not, with zero violations. Both runs instrument
// against one registry, whose processes trace only once a buffer is
// set, so the untraced write run goes first.
func TestObliviousnessLBLStreamTraced(t *testing.T) {
	const valueSize = 8
	const ops = 8
	cfg := streamCfg(LBLPointPermute, valueSize, 4)
	reg := obs.NewRegistry()
	serverAud := reg.ShapeAuditor("server")
	proxyAud := reg.ShapeAuditor("proxy")
	mkTraced := func(traced bool) func(t *testing.T) (*rig, Accessor) {
		return func(t *testing.T) (*rig, Accessor) {
			r, acc := lblStreamObsRig(cfg)(t)
			if traced {
				reg.Tracer("server", 1<<10)
				reg.Tracer("proxy", 1<<10)
			}
			r.server.Instrument(reg, "server")
			r.client.Instrument(reg, "proxy")
			acc.(*LBLProxy).Instrument(reg, "proxy")
			return r, acc
		}
	}
	writes := observedRun(t, mkTraced(false), OpWrite, valueSize, ops)
	reads := observedRun(t, mkTraced(true), OpRead, valueSize, ops)
	assertIdenticalViews(t, reads, writes)
	if vp, vs := proxyAud.Violations(), serverAud.Violations(); vp != 0 || vs != 0 {
		t.Fatalf("shape auditor: proxy=%d server=%d violations across traced read + untraced write runs, want 0/0", vp, vs)
	}
	// The traced run produced the streamed pipeline's stage spans.
	have := map[string]bool{}
	for _, rec := range reg.TraceRecords() {
		have[rec.Name] = true
	}
	for _, want := range []string{"table_build", "rpc", "server_decrypt"} {
		if !have[want] {
			t.Fatalf("no %q span recorded on the streamed path", want)
		}
	}
}

// TestLBLStreamSimulatorParity checks the frame-by-frame ROR-RW
// projection: the real streamed request and the simulator's output
// have identical frame counts and per-frame lengths, and the simulated
// frames carry the exact frame headers the wire format pins.
func TestLBLStreamSimulatorParity(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := streamCfg(mode, 8, 4)
			r, proxy, _ := newLBLStream(t, cfg)
			loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})
			var real []int
			r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
				if msgType == MsgLBLAccess {
					real = append(real, reqLen)
				}
			})
			if _, _, err := proxy.Access(OpWrite, "k", bytes.Repeat([]byte{9}, 8)); err != nil {
				t.Fatal(err)
			}

			sim, err := NewLBLSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, err := sim.Simulate("k")
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != len(real) {
				t.Fatalf("simulator emitted %d frames, real stream %d", len(frames), len(real))
			}
			// The head frame's observation is recorded with its paired
			// response, after the continuation frames — compare as
			// multisets of frame lengths.
			simLens := make([]int, len(frames))
			for i, f := range frames {
				simLens[i] = len(f)
			}
			realLens := append([]int(nil), real...)
			sort.Ints(simLens)
			sort.Ints(realLens)
			for i := range simLens {
				if simLens[i] != realLens[i] {
					t.Fatalf("frame length multisets differ: simulated %v, real %v", simLens, realLens)
				}
			}
			// Header structure: the head, then continuations.
			if frames[0][0] != byte(mode) {
				t.Errorf("head frame opens with %#x, want mode %#x", frames[0][0], byte(mode))
			}
			for i := 1; i < len(frames); i++ {
				if frames[i][0] != lblContinuation || frames[i][1] != byte(mode) {
					t.Errorf("frame %d header = % x, want continuation of mode %#x", i, frames[i][:2], byte(mode))
				}
			}
			// Fresh randomness: a second simulated stream has the same
			// shape but different bytes.
			again, err := sim.Simulate("k")
			if err != nil {
				t.Fatal(err)
			}
			for i := range again {
				if len(again[i]) != len(frames[i]) {
					t.Errorf("second stream frame %d: %dB, want %dB", i, len(again[i]), len(frames[i]))
				}
			}
			if bytes.Equal(again[1], frames[1]) {
				t.Error("simulator repeated a chunk verbatim")
			}
		})
	}
}

// newFaultStreamRig builds a streamed LBL deployment over a faulty
// link. The plan starts deactivated so setup traffic is clean.
func newFaultStreamRig(t *testing.T, cfg LBLConfig, plan *netsim.FaultPlan) (*rig, *LBLProxy) {
	t.Helper()
	plan.SetActive(false)
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Link{Fault: plan})
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	c, err := transport.Dial(l.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.client = c
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), c)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

// TestLBLStreamBlackholedResponse kills the response of a streamed
// write after the server executed it. The access must fail ambiguous,
// park the round, and the next access must settle it through the
// dedup replay so the acked-by-server write is not lost.
func TestLBLStreamBlackholedResponse(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	plan := &netsim.FaultPlan{BlackholeProb: 1, MaxFaults: 1}
	r, proxy := newFaultStreamRig(t, cfg, plan)
	loadData(t, r, proxy, map[string][]byte{"k": make([]byte, 8)})

	plan.SetActive(true)
	want := bytes.Repeat([]byte{0xAB}, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	_, _, err := proxy.AccessContext(ctx, OpWrite, "k", want)
	cancel()
	if err == nil {
		t.Fatal("blackholed streamed write succeeded")
	}
	if !transport.Ambiguous(err) {
		t.Fatalf("blackholed streamed write failed definitely (%v); want ambiguous", err)
	}
	plan.SetActive(false)

	// The next access first resolves the parked streamed round (a probe
	// at the parked counter, rejected stale because the write applied),
	// then reads at the settled counter.
	got, _, err := proxy.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("read after ambiguous streamed write: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("server-executed streamed write lost: read %v, want %v", got, want)
	}
	if n := plan.Stats().Blackholes; n != 1 {
		t.Fatalf("fault plan injected %d blackholes, want 1", n)
	}
}

// TestLBLStreamResetStorm runs a sequential streamed workload through
// random connection resets, tracking the set of values each failed
// write could have left behind, with shape auditors armed: no access
// may return a value outside the possible set, no acked write may be
// lost, and the mid-stream deaths must not change any frame's shape.
func TestLBLStreamResetStorm(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	plan := &netsim.FaultPlan{Seed: 7, ResetProb: 0.04, MaxFaults: 12}
	r, proxy := newFaultStreamRig(t, cfg, plan)
	reg := obs.NewRegistry()
	r.server.Instrument(reg, "server")
	r.client.Instrument(reg, "proxy")
	serverAud, proxyAud := reg.ShapeAuditor("server"), reg.ShapeAuditor("proxy")
	initial := make([]byte, 8)
	loadData(t, r, proxy, map[string][]byte{"k": initial})

	plan.SetActive(true)
	possible := map[string]bool{string(initial): true}
	failures := 0
	for i := 0; i < 60; i++ {
		if i%3 == 2 {
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				failures++
				continue
			}
			if !possible[string(got)] {
				t.Fatalf("access %d: read %v not among possible values", i, got)
			}
			possible = map[string]bool{string(got): true}
			continue
		}
		v := bytes.Repeat([]byte{byte(i + 1)}, 8)
		if _, _, err := proxy.Access(OpWrite, "k", v); err != nil {
			failures++
			if transport.Ambiguous(err) {
				possible[string(v)] = true // may or may not have applied
			}
			continue
		}
		possible = map[string]bool{string(v): true}
	}
	plan.SetActive(false)

	// The storm's last reset may have left a dead pooled connection
	// (restored by the background redial loop) and a parked round; each
	// retry makes resolution progress on a healthy network.
	var got []byte
	for attempt := 0; ; attempt++ {
		var err error
		got, _, err = proxy.Access(OpRead, "k", nil)
		if err == nil {
			break
		}
		if attempt == 40 {
			t.Fatalf("final read: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !possible[string(got)] {
		t.Fatalf("final value %v not among %d possible values — an acked write was lost or a ghost write applied", got, len(possible))
	}
	if vp, vs := proxyAud.Violations(), serverAud.Violations(); vp != 0 || vs != 0 {
		t.Fatalf("shape auditor under faults: proxy=%d server=%d violations, want 0/0", vp, vs)
	}
	if plan.Stats().Resets == 0 {
		t.Skip("fault plan injected no resets; storm did not exercise mid-stream death")
	}
	t.Logf("injected %d resets, %d failed accesses, %d possible final values",
		plan.Stats().Resets, failures, len(possible))
}
