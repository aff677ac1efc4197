package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
)

func TestLBLBatchReadInitialValues(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 4)
			data := map[string][]byte{}
			var ops []BatchOp
			for i := 0; i < 9; i++ {
				k := fmt.Sprintf("k%d", i)
				data[k] = []byte{byte(i), byte(i * 2), byte(i * 3), byte(i * 4)}
				ops = append(ops, BatchOp{Op: OpRead, Key: k})
			}
			loadData(t, r, proxy, data)
			values, _, err := proxy.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				if !bytes.Equal(values[i], data[op.Key]) {
					t.Errorf("batch read %s = %v, want %v", op.Key, values[i], data[op.Key])
				}
			}
		})
	}
}

func TestLBLBatchMixedReadWrite(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy, _ := newLBL(t, mode, 2)
			data := map[string][]byte{}
			for i := 0; i < 8; i++ {
				data[fmt.Sprintf("k%d", i)] = []byte{byte(i), 0}
			}
			loadData(t, r, proxy, data)
			// Even indices write, odd indices read.
			var ops []BatchOp
			for i := 0; i < 8; i++ {
				k := fmt.Sprintf("k%d", i)
				if i%2 == 0 {
					ops = append(ops, BatchOp{Op: OpWrite, Key: k, Value: []byte{byte(i), 0xAA}})
				} else {
					ops = append(ops, BatchOp{Op: OpRead, Key: k})
				}
			}
			values, _, err := proxy.AccessBatch(ops)
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				want := data[op.Key]
				if op.Op == OpWrite {
					want = op.Value
				}
				if !bytes.Equal(values[i], want) {
					t.Errorf("batch %s %s = %v, want %v", op.Op, op.Key, values[i], want)
				}
			}
			// Writes must be visible to later single accesses.
			got, _, err := proxy.Access(OpRead, "k0", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte{0, 0xAA}) {
				t.Errorf("read after batch write = %v", got)
			}
		})
	}
}

func TestLBLBatchSingleRPC(t *testing.T) {
	// The tentpole property: a batch over distinct keys costs exactly
	// one round trip, independent of batch size.
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	data := map[string][]byte{}
	var ops []BatchOp
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%02d", i)
		data[k] = []byte{byte(i), byte(i)}
		ops = append(ops, BatchOp{Op: OpRead, Key: k})
	}
	loadData(t, r, proxy, data)
	before := r.client.Stats().Calls
	if _, _, err := proxy.AccessBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := r.client.Stats().Calls - before; got != 1 {
		t.Errorf("batch of %d distinct keys made %d RPCs, want 1", len(ops), got)
	}
}

func TestLBLBatchDuplicateKeys(t *testing.T) {
	// Duplicate keys must not share a counter value: occurrences are
	// issued in waves, each a separate RPC, and read-after-write
	// ordering within the batch holds per key.
	r, proxy, _ := newLBL(t, LBLSpaceOpt, 2)
	loadData(t, r, proxy, map[string][]byte{"dup": {1, 1}, "other": {9, 9}})
	ops := []BatchOp{
		{Op: OpRead, Key: "dup"},
		{Op: OpWrite, Key: "dup", Value: []byte{2, 2}},
		{Op: OpRead, Key: "dup"},
		{Op: OpRead, Key: "other"},
	}
	before := r.client.Stats().Calls
	values, _, err := proxy.AccessBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	// 3 occurrences of "dup" → 3 waves → 3 RPCs ("other" rides wave 0).
	if got := r.client.Stats().Calls - before; got != 3 {
		t.Errorf("batch with triplicate key made %d RPCs, want 3", got)
	}
	want := [][]byte{{1, 1}, {2, 2}, {2, 2}, {9, 9}}
	for i := range want {
		if !bytes.Equal(values[i], want[i]) {
			t.Errorf("op %d value = %v, want %v", i, values[i], want[i])
		}
	}
}

func TestLBLBatchMissingKeyPartialFailure(t *testing.T) {
	// One unloaded key fails individually; every other access completes
	// and commits its counter, so subsequent accesses still work.
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	loadData(t, r, proxy, map[string][]byte{"a": {1, 1}, "b": {2, 2}})
	values, _, err := proxy.AccessBatch([]BatchOp{
		{Op: OpRead, Key: "a"},
		{Op: OpRead, Key: "ghost"},
		{Op: OpWrite, Key: "b", Value: []byte{3, 3}},
	})
	if err == nil {
		t.Fatal("batch containing a missing key returned no error")
	}
	if !bytes.Equal(values[0], []byte{1, 1}) {
		t.Errorf("value[0] = %v, want [1 1]", values[0])
	}
	if values[1] != nil {
		t.Errorf("value[1] = %v for missing key, want nil", values[1])
	}
	if !bytes.Equal(values[2], []byte{3, 3}) {
		t.Errorf("value[2] = %v, want [3 3]", values[2])
	}
	// Counters of the successful accesses committed: the proxy and
	// server label schedules still agree.
	got, _, err := proxy.Access(OpRead, "a", nil)
	if err != nil {
		t.Fatalf("access after partial batch failure: %v", err)
	}
	if !bytes.Equal(got, []byte{1, 1}) {
		t.Errorf("read a = %v", got)
	}
	got, _, err = proxy.Access(OpRead, "b", nil)
	if err != nil {
		t.Fatalf("access after partial batch failure: %v", err)
	}
	if !bytes.Equal(got, []byte{3, 3}) {
		t.Errorf("read b = %v", got)
	}
}

func TestLBLBatchValueSizeValidation(t *testing.T) {
	_, proxy, _ := newLBL(t, LBLPointPermute, 4)
	_, _, err := proxy.AccessBatch([]BatchOp{{Op: OpWrite, Key: "k", Value: []byte{1}}})
	if !errors.Is(err, ErrValueSize) {
		t.Errorf("short batch write = %v, want ErrValueSize", err)
	}
}

func TestLBLBatchEmpty(t *testing.T) {
	r, proxy, _ := newLBL(t, LBLPointPermute, 4)
	before := r.client.Stats().Calls
	values, _, err := proxy.AccessBatch(nil)
	if err != nil || len(values) != 0 {
		t.Errorf("empty batch = %v, %v", values, err)
	}
	if got := r.client.Stats().Calls - before; got != 0 {
		t.Errorf("empty batch made %d RPCs", got)
	}
}

func TestLBLBatchInterleavedWithSingles(t *testing.T) {
	// Batches and single accesses racing on the same keys must keep the
	// counter schedule consistent (run with -race for full value).
	r, proxy, _ := newLBL(t, LBLPointPermute, 2)
	data := map[string][]byte{}
	var keys []string
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		data[k] = []byte{byte(i), 0}
		keys = append(keys, k)
	}
	loadData(t, r, proxy, data)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			var ops []BatchOp
			for _, k := range keys {
				ops = append(ops, BatchOp{Op: OpWrite, Key: k, Value: []byte{byte(w), 1}})
			}
			if _, _, err := proxy.AccessBatch(ops); err != nil {
				t.Errorf("batch %d: %v", w, err)
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys {
				if _, _, err := proxy.Access(OpRead, k, nil); err != nil {
					t.Errorf("single read %s: %v", k, err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every key must still be consistently accessible.
	for _, k := range keys {
		if _, _, err := proxy.Access(OpRead, k, nil); err != nil {
			t.Errorf("final read %s: %v", k, err)
		}
	}
}

// --- batch obliviousness ---

// observedBatchRun issues one AccessBatch of ops accesses of the given
// op and returns the sorted observation list plus the exchange count.
func observedBatchRun(t *testing.T, mode LBLMode, op Op, valueSize, ops int) []exchange {
	t.Helper()
	r, proxy, _ := newLBL(t, mode, valueSize)
	data := map[string][]byte{}
	for i := 0; i < ops; i++ {
		data[fmt.Sprintf("key-%02d", i)] = make([]byte, valueSize)
	}
	loadData(t, r, proxy, data)
	var mu sync.Mutex
	var seen []exchange
	r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
		mu.Lock()
		seen = append(seen, exchange{msgType, reqLen, respLen})
		mu.Unlock()
	})
	batch := make([]BatchOp, 0, ops)
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if op == OpWrite {
			v := make([]byte, valueSize)
			v[0] = byte(i)
			batch = append(batch, BatchOp{Op: OpWrite, Key: key, Value: v})
		} else {
			batch = append(batch, BatchOp{Op: OpRead, Key: key})
		}
	}
	if _, _, err := proxy.AccessBatch(batch); err != nil {
		t.Fatalf("batch of %s: %v", op, err)
	}
	sort.Slice(seen, func(i, j int) bool {
		a, b := seen[i], seen[j]
		if a.msgType != b.msgType {
			return a.msgType < b.msgType
		}
		if a.reqLen != b.reqLen {
			return a.reqLen < b.reqLen
		}
		return a.respLen < b.respLen
	})
	return seen
}

func TestObliviousnessLBLBatch(t *testing.T) {
	// A batch of pure reads and a batch of pure writes must present the
	// adversary with identical views: the same single exchange, of the
	// same message type and sizes. Batching widens the frame but adds no
	// operation-dependent signal.
	const valueSize = 8
	const ops = 12
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			reads := observedBatchRun(t, mode, OpRead, valueSize, ops)
			writes := observedBatchRun(t, mode, OpWrite, valueSize, ops)
			assertIdenticalViews(t, reads, writes)
			if len(reads) != 1 {
				t.Errorf("batch of %d distinct keys produced %d exchanges, want 1", ops, len(reads))
			}
			if reads[0].msgType != MsgLBLAccess {
				t.Errorf("observed msgType %#x, want MsgLBLAccess", reads[0].msgType)
			}
		})
	}
}

// --- shuffle randomness ---

func TestLBLShuffleDiffersAcrossProxies(t *testing.T) {
	// Two proxies sharing a PRF key build requests for the same key at
	// the same counter. Every input is identical, so any difference can
	// only come from the step-1.5 shuffle — which must draw fresh
	// crypto randomness per request rather than a seedable stream an
	// adversary could reproduce.
	key := bytes.Repeat([]byte{7}, prf.KeySize)
	mk := func() *LBLProxy {
		f, err := prf.New(key)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewLBLProxy(LBLConfig{ValueSize: 16, Mode: LBLBasic}, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	differed := false
	for i := 0; i < 8; i++ {
		ra, err := oneFrameRequest(a, OpRead, "k", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := oneFrameRequest(b, OpRead, "k", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("request sizes differ: %d vs %d", len(ra), len(rb))
		}
		if !bytes.Equal(ra, rb) {
			differed = true
			break
		}
	}
	if !differed {
		t.Error("8 independent requests for identical inputs were byte-identical — shuffle randomness is predictable")
	}
}

func TestCryptoShufflerPermutes(t *testing.T) {
	// shuffle must produce a permutation (no element lost or duplicated)
	// and must not be the identity every time.
	shuf := newCryptoShuffler()
	const n = 64
	moved := false
	for trial := 0; trial < 4; trial++ {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		shuf.shuffle(n, func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		seen := make([]bool, n)
		for i, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("trial %d: not a permutation: %v", trial, perm)
			}
			seen[v] = true
			if v != i {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("4 shuffles of 64 elements were all the identity permutation")
	}
}

func TestCryptoShufflerIntNBounds(t *testing.T) {
	shuf := newCryptoShuffler()
	for i := 0; i < 10000; i++ {
		n := 1 + i%17
		if got := shuf.intN(n); got < 0 || got >= n {
			t.Fatalf("intN(%d) = %d", n, got)
		}
	}
}
