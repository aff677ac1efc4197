package core

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
)

// applyTable runs the server half of one access directly against a
// fresh store seeded with record, returning the response labels and the
// post-access stored record.
func applyTable(t *testing.T, cfg LBLConfig, ek string, record, table []byte) (labels, newRec []byte) {
	t.Helper()
	store := kvstore.New()
	if err := store.Put(ek, append([]byte(nil), record...)); err != nil {
		t.Fatal(err)
	}
	srv := NewLBLServer(store)
	geo := tableGeometry{mode: cfg.Mode, groups: cfg.Groups(), entryLen: cfg.Mode.entryLen(), nEntries: cfg.Mode.entries()}
	labels = make([]byte, cfg.Groups()*prf.Size)
	if err := srv.accessOne(ek, geo, table, labels, nil); err != nil {
		t.Fatal(err)
	}
	newRec, err := store.Get(ek)
	if err != nil {
		t.Fatal(err)
	}
	return labels, newRec
}

// A table built with a worker pool must be exactly as applicable as a
// sequential one: applied to identical server state, both installs end
// at the identical record (the new-label schedule is deterministic),
// and both recover to the same value — the cross-check that parallel
// sealing writes every slot of every worker's range correctly.
func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := LBLConfig{ValueSize: 64, Mode: mode}
			proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				t.Fatal(err)
			}
			value := make([]byte, cfg.ValueSize)
			rnd := rand.New(rand.NewPCG(1, 2))
			for i := range value {
				value[i] = byte(rnd.Uint32())
			}
			ek, rec, err := proxy.BuildRecord("obj", value)
			if err != nil {
				t.Fatal(err)
			}

			newValue := make([]byte, cfg.ValueSize)
			for i := range newValue {
				newValue[i] = byte(rnd.Uint32())
			}
			seq := make([]byte, cfg.TableBytes())
			par := make([]byte, cfg.TableBytes())
			if err := proxy.sealKey(seq, &roundKey{op: OpWrite, key: "obj", value: newValue}, 0, proxy.cfg.Groups(), 1); err != nil {
				t.Fatal(err)
			}
			if err := proxy.sealKey(par, &roundKey{op: OpWrite, key: "obj", value: newValue}, 0, proxy.cfg.Groups(), 4); err != nil {
				t.Fatal(err)
			}

			seqLabels, seqRec := applyTable(t, cfg, ek, rec, seq)
			parLabels, parRec := applyTable(t, cfg, ek, rec, par)
			if !bytes.Equal(seqRec, parRec) {
				t.Error("stored records diverge after sequential vs parallel table")
			}
			if !bytes.Equal(seqLabels, parLabels) {
				t.Error("response labels diverge")
			}

			// Both recoveries — sequential and fanned out — must yield
			// the written value.
			for _, workers := range []int{1, 4} {
				got, err := proxy.recoverWorkers(proxy.prf.LabelGen("obj"), OpWrite, newValue, 1, parLabels, workers)
				if err != nil {
					t.Fatalf("recover with %d workers: %v", workers, err)
				}
				if !bytes.Equal(got, newValue) {
					t.Errorf("recover with %d workers = %x, want %x", workers, got, newValue)
				}
			}
		})
	}
}

// Each worker's shuffle lane must still place entries uniformly: in
// basic mode the bit-0 entry is generated first, so any placement bias
// would leak plaintext bits by table position (§5.2 step 1.5). Locate
// the bit-0 entry in every group of many parallel-built tables and
// check both slots are hit evenly — across the table, i.e. in every
// worker's range.
func TestParallelBuildShuffleUniform(t *testing.T) {
	cfg := LBLConfig{ValueSize: 16, Mode: LBLBasic} // 128 groups
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := proxy.prf.LabelGen("obj")
	table := make([]byte, cfg.TableBytes())
	entryLen := cfg.Mode.entryLen()
	groups := cfg.Groups()

	const rounds = 200
	slot0 := 0
	perWorkerSlot0 := [4]int{}
	for ct := uint64(0); ct < rounds; ct++ {
		if err := proxy.sealKey(table, &roundKey{op: OpRead, key: "obj", ct: ct}, 0, proxy.cfg.Groups(), 4); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < groups; g++ {
			old0 := gen.Label(g, 0, ct)
			e0 := table[g*2*entryLen : g*2*entryLen+entryLen]
			if _, err := secretbox.OpenLabel(old0[:], e0); err == nil {
				slot0++
				perWorkerSlot0[g*4/groups]++
			}
		}
	}
	total := rounds * groups
	frac := float64(slot0) / float64(total)
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("bit-0 entry in slot 0 fraction = %.4f over %d samples, want ~0.5", frac, total)
	}
	// And per worker lane (groups/4 ranges): no lane may be degenerate.
	perLane := rounds * groups / 4
	for lane, n := range perWorkerSlot0 {
		lf := float64(n) / float64(perLane)
		if lf < 0.42 || lf > 0.58 {
			t.Errorf("worker lane %d slot-0 fraction = %.4f, want ~0.5", lane, lf)
		}
	}
}

// End-to-end accesses with the worker pool engaged (GOMAXPROCS raised
// so tableWorkers fans out): values must round-trip exactly as in the
// sequential configuration. Run under -race this also checks the
// build/recover goroutines share no state.
func TestAccessEndToEndWithWorkerPool(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, mode := range []LBLMode{LBLBasic, LBLPointPermute} {
		t.Run(mode.String(), func(t *testing.T) {
			// 64 B basic → 512 groups → 4 workers per table.
			r, proxy, _ := newLBL(t, mode, 64)
			v0 := bytes.Repeat([]byte{0x5A}, 64)
			loadData(t, r, proxy, map[string][]byte{"k": v0})
			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v0) {
				t.Errorf("read = %x, want %x", got, v0)
			}
			v1 := bytes.Repeat([]byte{0xC3}, 64)
			if _, _, err := proxy.Access(OpWrite, "k", v1); err != nil {
				t.Fatal(err)
			}
			got, _, err = proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, v1) {
				t.Errorf("read after write = %x, want %x", got, v1)
			}
		})
	}
}

// The batched path with inner workers engaged: batch of few keys on a
// many-core setting multiplies inner fan-out.
func TestAccessBatchWithInnerWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	r, proxy, _ := newLBL(t, LBLBasic, 64)
	data := map[string][]byte{
		"a": bytes.Repeat([]byte{1}, 64),
		"b": bytes.Repeat([]byte{2}, 64),
	}
	loadData(t, r, proxy, data)
	ops := []BatchOp{
		{Op: OpRead, Key: "a"},
		{Op: OpWrite, Key: "b", Value: bytes.Repeat([]byte{9}, 64)},
		{Op: OpRead, Key: "b"},
	}
	vals, _, err := proxy.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0], data["a"]) {
		t.Errorf("batch read a = %x", vals[0])
	}
	if !bytes.Equal(vals[2], bytes.Repeat([]byte{9}, 64)) {
		t.Errorf("batch read-after-write b = %x", vals[2])
	}
}

// The sequential (workers<=1) build path is the per-access hot path on
// small tables; pin its allocation budget so the pooled-buffer work
// cannot silently regress. The budget covers the per-access LabelGen
// (HMAC + AES key schedule) and the shuffler — not per-entry or
// per-group garbage, which this test would catch.
func TestSequentialBuildAllocBudget(t *testing.T) {
	cfg := LBLConfig{ValueSize: 160, Mode: LBLBasic}
	k, err := NewTableBuildKernel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.Op() // warm
	allocs := testing.AllocsPerRun(50, func() {
		if err := k.Op(); err != nil {
			t.Fatal(err)
		}
	})
	// LabelGen ~6 allocs (HMAC state + AES cipher), shuffler 1,
	// generous headroom for runtime internals; 1280 groups × 2 entries
	// would add thousands if per-entry garbage returned.
	if allocs > 16 {
		t.Errorf("sequential table build allocates %v times per op, want <= 16", allocs)
	}
}
