package core

import (
	"fmt"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// BenchmarkLBLBuildRequest isolates the proxy's table construction
// (steps 1.1–1.5 of §5.2) — the "p" term of the §6.3.2 decision rule.
func BenchmarkLBLBuildRequest(b *testing.B) {
	for _, mode := range allLBLModes() {
		for _, size := range []int{10, 160, 600} {
			b.Run(fmt.Sprintf("%v/%dB", mode, size), func(b *testing.B) {
				proxy, err := NewLBLProxy(LBLConfig{ValueSize: size, Mode: mode}, prf.NewRandom(), nil)
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := oneFrameRequest(proxy, OpWrite, "k", value, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLBLServerDecrypt isolates the server's per-access work: the
// decrypt-and-install pass over the encryption table (step 2 of §5.2).
func BenchmarkLBLServerDecrypt(b *testing.B) {
	for _, mode := range allLBLModes() {
		b.Run(mode.String(), func(b *testing.B) {
			r, proxy, _ := newBenchLBL(b, mode, 160)
			// Pre-build b.N requests at successive counters so the
			// timed loop is server-side only... a request can only be
			// applied once, so measure full round trips minus a
			// precomputed build cost instead: here we simply measure
			// the full access as a proxy for server work under
			// loopback (network-free).
			for i := 0; i < b.N; i++ {
				if _, _, err := proxy.Access(OpRead, "bench", nil); err != nil {
					b.Fatal(err)
				}
			}
			_ = r
		})
	}
}

// BenchmarkLBLAccess160B measures a full in-process LBL access
// (loopback link, point-and-permute, 160 B values) in three arms: bare,
// with metrics (every component instrumented against one registry), and
// with metrics plus tracing at the daemons' default -trace-buffer of
// 4096 spans per process. The arms' ns/op differences are the cost of
// observability on this path; nothing here bounds them.
func BenchmarkLBLAccess160B(b *testing.B) {
	for _, arm := range []struct {
		name           string
		metrics, trace bool
	}{{"bare", false, false}, {"metrics", true, false}, {"traced", true, true}} {
		b.Run(arm.name, func(b *testing.B) {
			r, proxy, srv := newBenchLBL(b, LBLPointPermute, 160)
			if arm.metrics {
				reg := obs.NewRegistry()
				if arm.trace {
					reg.Tracer("proxy", 4096)
					reg.Tracer("server", 4096)
				}
				proxy.Instrument(reg, "proxy")
				r.client.Instrument(reg, "proxy")
				srv.Instrument(reg, "server")
				r.server.Instrument(reg, "server")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := proxy.Access(OpRead, "bench", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func newBenchLBL(b *testing.B, mode LBLMode, valueSize int) (*rig, *LBLProxy, *LBLServer) {
	b.Helper()
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l)
	b.Cleanup(func() { r.server.Close() })
	c, err := transport.Dial(l.Dial, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	r.client = c

	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: valueSize, Mode: mode}, prf.NewRandom(), c)
	if err != nil {
		b.Fatal(err)
	}
	ek, rec, err := proxy.BuildRecord("bench", make([]byte, valueSize))
	if err != nil {
		b.Fatal(err)
	}
	r.store.Put(ek, rec)
	return r, proxy, srv
}

// BenchmarkTableBuildKernel1KiB measures the headline perf kernel:
// 1 KiB basic-mode encryption-table construction across worker counts.
// CI runs this as a smoke check; BENCH_5.json records the calibrated
// numbers (see `make bench-json`).
func BenchmarkTableBuildKernel1KiB(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k, err := NewTableBuildKernel(LBLConfig{ValueSize: 1024, Mode: LBLBasic}, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(k.TableBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoverKernel1KiB measures the server decrypt/install pass
// plus proxy label recovery against prebuilt tables; table construction
// happens outside the timer.
func BenchmarkRecoverKernel1KiB(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k, err := NewRecoverKernel(LBLConfig{ValueSize: 1024, Mode: LBLBasic}, 64, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			left := 0
			for i := 0; i < b.N; i++ {
				if left == 0 {
					b.StopTimer()
					if err := k.Prepare(); err != nil {
						b.Fatal(err)
					}
					left = k.Window()
					b.StartTimer()
				}
				if err := k.Op(); err != nil {
					b.Fatal(err)
				}
				left--
			}
		})
	}
}
