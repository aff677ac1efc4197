package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/obs"
)

// newLBLReconcile builds an LBL deployment whose proxy may reconcile
// counter desync by probing up to scan steps.
func newLBLReconcile(t *testing.T, mode LBLMode, scan int, f *prf.PRF) (*rig, *LBLProxy) {
	t.Helper()
	r := newRig(t)
	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 4, Mode: mode, ReconcileScan: scan}, f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	return r, proxy
}

// serverRecord reads the raw record bytes the server holds for key.
func serverRecord(t *testing.T, r *rig, p *LBLProxy, key string) []byte {
	t.Helper()
	ek := p.prf.EncodeKey(key)
	rec, err := r.store.Get(string(ek[:]))
	if err != nil {
		t.Fatalf("server record for %q: %v", key, err)
	}
	return rec
}

// regressServer overwrites the server's record for key with an older
// snapshot, simulating a server that crashed under a lossy fsync
// policy and recovered older durable state.
func regressServer(t *testing.T, r *rig, p *LBLProxy, key string, rec []byte) {
	t.Helper()
	ek := p.prf.EncodeKey(key)
	if err := r.store.Put(string(ek[:]), rec); err != nil {
		t.Fatal(err)
	}
}

func mustWrite(t *testing.T, p *LBLProxy, key string, value []byte) {
	t.Helper()
	if _, _, err := p.Access(OpWrite, key, value); err != nil {
		t.Fatalf("write %q: %v", key, err)
	}
}

func TestReconcileAfterServerRollback(t *testing.T) {
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			r, proxy := newLBLReconcile(t, mode, 8, prf.NewRandom())
			loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})

			mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
			mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
			mustWrite(t, proxy, "k", []byte{3, 3, 3, 3})
			old := serverRecord(t, r, proxy, "k") // counter 3, value 3333

			mustWrite(t, proxy, "k", []byte{4, 4, 4, 4})
			if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
				t.Fatal(err)
			}
			// The server "crashes" and loses the last two rounds: its
			// record regresses to counter 3 while the proxy believes 5.
			regressServer(t, r, proxy, "k", old)

			got, _, err := proxy.Access(OpRead, "k", nil)
			if err != nil {
				t.Fatalf("access after rollback did not reconcile: %v", err)
			}
			// The durable value is the one from before the lost rounds.
			if !bytes.Equal(got, []byte{3, 3, 3, 3}) {
				t.Errorf("reconciled read = %v, want the rolled-back value 3333", got)
			}
			// The schedule has re-converged: ordinary traffic flows.
			mustWrite(t, proxy, "k", []byte{5, 5, 5, 5})
			got, _, err = proxy.Access(OpRead, "k", nil)
			if err != nil || !bytes.Equal(got, []byte{5, 5, 5, 5}) {
				t.Errorf("post-reconcile write/read = %v, %v", got, err)
			}
		})
	}
}

func TestReconcileAfterProxyStateLoss(t *testing.T) {
	f := prf.NewRandom()
	r, proxy := newLBLReconcile(t, LBLPointPermute, 8, f)
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})

	mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
	mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
	var snap bytes.Buffer
	if err := proxy.SaveCounters(&snap); err != nil { // counter 2
		t.Fatal(err)
	}
	mustWrite(t, proxy, "k", []byte{3, 3, 3, 3})
	mustWrite(t, proxy, "k", []byte{4, 4, 4, 4}) // server now at 4

	// A replacement proxy restarts from the stale snapshot: its counter
	// (2) trails the server (4) by the save-to-crash window.
	fresh, err := NewLBLProxy(proxy.Config(), f, r.client)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadCounters(&snap); err != nil {
		t.Fatal(err)
	}
	got, _, err := fresh.Access(OpRead, "k", nil)
	if err != nil {
		t.Fatalf("access after proxy state loss did not reconcile: %v", err)
	}
	if !bytes.Equal(got, []byte{4, 4, 4, 4}) {
		t.Errorf("reconciled read = %v, want the server's live value 4444", got)
	}
	mustWrite(t, fresh, "k", []byte{5, 5, 5, 5})
	if got, _, err := fresh.Access(OpRead, "k", nil); err != nil || !bytes.Equal(got, []byte{5, 5, 5, 5}) {
		t.Errorf("post-reconcile write/read = %v, %v", got, err)
	}
}

func TestReconcileDisabledPreservesFailure(t *testing.T) {
	r, proxy := newLBLReconcile(t, LBLSpaceOpt, 0, prf.NewRandom())
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	old := serverRecord(t, r, proxy, "k")
	mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
	regressServer(t, r, proxy, "k", old)

	if _, _, err := proxy.Access(OpRead, "k", nil); !isStaleRound(err) {
		t.Errorf("with reconciliation off, rollback access = %v, want stale rejection", err)
	}
}

func TestReconcileScanBudgetExceeded(t *testing.T) {
	r, proxy := newLBLReconcile(t, LBLSpaceOpt, 1, prf.NewRandom())
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	old := serverRecord(t, r, proxy, "k") // counter 0
	for i := 0; i < 4; i++ {
		mustWrite(t, proxy, "k", []byte{byte(i), 0, 0, 0})
	}
	regressServer(t, r, proxy, "k", old) // desync of 4, scan budget 1

	if _, _, err := proxy.Access(OpRead, "k", nil); err == nil {
		t.Error("access succeeded despite desync beyond the scan budget")
	}
}

func TestReconcileMetrics(t *testing.T) {
	r, proxy := newLBLReconcile(t, LBLPointPermute, 8, prf.NewRandom())
	reg := obs.NewRegistry()
	proxy.Instrument(reg, "proxy")
	loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
	mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
	old := serverRecord(t, r, proxy, "k")
	mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
	regressServer(t, r, proxy, "k", old)
	if _, _, err := proxy.Access(OpRead, "k", nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf) //nolint:errcheck
	out := buf.String()
	if !strings.Contains(out, "ortoa_lbl_reconciled_keys_total 1") {
		t.Error("reconciled_keys_total not incremented")
	}
	if strings.Contains(out, "ortoa_lbl_reconcile_probes_total 0") {
		t.Error("reconcile_probes_total stayed zero through a reconciliation")
	}
}

// TestRecoveryObliviousness checks that a crash-recovery episode leaks
// no operation type: the adversary's view of a reconciliation
// triggered by a read must be identical to one triggered by a write —
// same exchange count, same message types, same sizes. Probes are
// always read-shaped and stale rejections are emitted identically for
// both op types, so the episodes must be indistinguishable.
func TestRecoveryObliviousness(t *testing.T) {
	const valueSize = 4
	episode := func(t *testing.T, op Op) []exchange {
		r, proxy := newLBLReconcile(t, LBLSpaceOpt, 8, prf.NewRandom())
		loadData(t, r, proxy, map[string][]byte{"k": {0, 0, 0, 0}})
		mustWrite(t, proxy, "k", []byte{1, 1, 1, 1})
		old := serverRecord(t, r, proxy, "k")
		mustWrite(t, proxy, "k", []byte{2, 2, 2, 2})
		mustWrite(t, proxy, "k", []byte{3, 3, 3, 3})
		regressServer(t, r, proxy, "k", old) // server at 1, proxy at 3

		// Observe only the recovery episode itself.
		var mu sync.Mutex
		var seen []exchange
		r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
			mu.Lock()
			seen = append(seen, exchange{msgType, reqLen, respLen})
			mu.Unlock()
		})
		value := make([]byte, valueSize)
		var err error
		if op == OpWrite {
			_, _, err = proxy.Access(OpWrite, "k", value)
		} else {
			_, _, err = proxy.Access(OpRead, "k", nil)
		}
		if err != nil {
			t.Fatalf("%v-triggered recovery failed: %v", op, err)
		}
		return seen
	}
	reads := episode(t, OpRead)
	writes := episode(t, OpWrite)
	assertIdenticalViews(t, reads, writes)
}
