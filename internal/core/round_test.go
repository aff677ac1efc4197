package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// These tests pin properties of the one LBL round shape — n ≥ 1 keys
// in k ≥ 1 frames — that the single-key and one-frame suites do not
// reach: batches sent as several frames, how a one-key round's
// rejections classify, and a stream cut before its last frame.

// TestObliviousnessLBLStreamBatch: a batch whose tables span several
// frames presents the adversary with the same frames — count, type and
// lengths — whether it reads or writes.
func TestObliviousnessLBLStreamBatch(t *testing.T) {
	const valueSize, n = 8, 5
	for _, mode := range allLBLModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := streamCfg(mode, valueSize, 3)
			k, _ := cfg.frames(n)
			if k == 1 {
				t.Fatalf("batch of %d goes out as one frame under budget %dB", n, cfg.StreamChunkBytes)
			}
			run := func(op Op) []exchange {
				r, proxy, _ := newLBLStream(t, cfg)
				data := map[string][]byte{}
				for i := 0; i < n; i++ {
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
				batch := make([]BatchOp, n)
				for i := range batch {
					batch[i] = BatchOp{Op: OpRead, Key: fmt.Sprintf("key-%02d", i)}
					if op == OpWrite {
						batch[i] = BatchOp{Op: OpWrite, Key: batch[i].Key, Value: bytes.Repeat([]byte{byte(i + 1)}, valueSize)}
					}
				}
				if _, _, err := proxy.AccessBatch(batch); err != nil {
					t.Fatalf("batch of %s: %v", op, err)
				}
				mu.Lock()
				defer mu.Unlock()
				sort.Slice(seen, func(i, j int) bool {
					if seen[i].reqLen != seen[j].reqLen {
						return seen[i].reqLen < seen[j].reqLen
					}
					return seen[i].respLen < seen[j].respLen
				})
				return seen
			}
			reads, writes := run(OpRead), run(OpWrite)
			assertIdenticalViews(t, reads, writes)
			if len(reads) != k {
				t.Errorf("batch crossed as %d frames, want k = %d", len(reads), k)
			}
		})
	}
}

// TestAccessRejectionClassification: each of the server's four
// rejections of a one-key round reaches Access as the definite
// RemoteError the router, reconciliation and adoption classify —
// whether the round went out as one frame or several.
func TestAccessRejectionClassification(t *testing.T) {
	cases := []struct {
		name string
		// provoke arranges for the next access to key "k" to be
		// rejected, and returns the key to access.
		provoke func(t *testing.T, r *rig, p *LBLProxy, srv *LBLServer) string
		is      func(error) bool
	}{
		{"stale table", func(t *testing.T, r *rig, p *LBLProxy, srv *LBLServer) string {
			mustWrite(t, p, "k", []byte{5, 5, 5, 5})
			e := p.counters.acquire("k")
			e.ct-- // the proxy's counter falls behind the record
			e.mu.Unlock()
			return "k"
		}, isStaleRound},
		{"epoch fence", func(t *testing.T, r *rig, p *LBLProxy, srv *LBLServer) string {
			other, err := NewLBLProxy(p.Config(), p.prf, r.client)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.ClaimRange(RangeOf("k")); err != nil {
				t.Fatal(err)
			}
			return "k"
		}, isFencedRound},
		{"expired budget", func(t *testing.T, r *rig, p *LBLProxy, srv *LBLServer) string {
			// The round's budget runs out in the server's queue: the
			// handler starts with its deadline already passed.
			r.server.Handle(MsgLBLAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
				expired, cancel := context.WithDeadline(ctx, time.Now())
				defer cancel()
				return srv.handleAccess(expired, payload)
			})
			return "k"
		}, IsDeadlineExpired},
		{"unknown key", func(t *testing.T, r *rig, p *LBLProxy, srv *LBLServer) string {
			return "never-loaded"
		}, func(err error) bool {
			var re *transport.RemoteError
			return errors.As(err, &re) && re.Msg == ErrNotFound.Error()
		}},
	}
	for _, frames := range []int{1, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("k=%d/%s", frames, tc.name), func(t *testing.T) {
				cfg := streamCfg(LBLPointPermute, 4, frames)
				if frames == 1 {
					cfg.StreamChunkBytes = 0
				}
				if k, _ := cfg.frames(1); k != frames {
					t.Fatalf("config frames an access as %d frames, want %d", k, frames)
				}
				r, p, srv := newLBLStream(t, cfg)
				loadData(t, r, p, map[string][]byte{"k": {1, 2, 3, 4}})
				key := tc.provoke(t, r, p, srv)
				ek := p.prf.EncodeKey("k")
				before, err := r.store.Get(string(ek[:]))
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = p.Access(OpWrite, key, []byte{9, 9, 9, 9})
				if !tc.is(err) {
					t.Fatalf("Access = %v, not classified as %s", err, tc.name)
				}
				var re *transport.RemoteError
				if !errors.As(err, &re) || transport.Ambiguous(err) {
					t.Errorf("Access = %v (%T), want a definite RemoteError", err, err)
				}
				if after, _ := r.store.Get(string(ek[:])); !bytes.Equal(before, after) {
					t.Error("the rejected access changed the stored record")
				}
			})
		}
	}
}

// cuttingConn passes writes through until armed, then lets left more
// writes (one per frame) through and closes the connection on the
// next one. left < 0 means unarmed.
type cuttingConn struct {
	net.Conn
	left *atomic.Int64
}

func (c *cuttingConn) Write(b []byte) (int, error) {
	if c.left.Load() >= 0 && c.left.Add(-1) < 0 {
		c.Conn.Close()
		return 0, errors.New("connection cut")
	}
	return c.Conn.Write(b)
}

// TestLBLStreamCutBeforeLastFrame sends a k > 1 write whose connection
// dies after k−1 of its frames. With no end frame, the server must
// count continuations against the head's k: the record stays byte for
// byte what it was, and the key's next access settles the parked round
// and reads the value from before the stream.
func TestLBLStreamCutBeforeLastFrame(t *testing.T) {
	cfg := streamCfg(LBLPointPermute, 8, 4)
	k, _ := cfg.frames(1)
	if k < 3 {
		t.Fatalf("access frames as %d frames, want at least 3", k)
	}
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l)
	t.Cleanup(func() { r.server.Close() })
	RegisterLoader(r.server, r.store)
	NewLBLServer(r.store).Register(r.server)
	var left atomic.Int64
	left.Store(-1)
	c, err := transport.Dial(func() (net.Conn, error) {
		conn, err := l.Dial()
		if err != nil {
			return nil, err
		}
		return &cuttingConn{Conn: conn, left: &left}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r.client = c
	proxy, err := NewLBLProxy(cfg, prf.NewRandom(), c)
	if err != nil {
		t.Fatal(err)
	}
	initial := bytes.Repeat([]byte{3}, 8)
	loadData(t, r, proxy, map[string][]byte{"k": initial})
	ek := proxy.prf.EncodeKey("k")
	before, err := r.store.Get(string(ek[:]))
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	arrived := 0
	r.server.SetObserver(func(msgType byte, reqLen, respLen int) {
		mu.Lock()
		arrived++
		mu.Unlock()
	})
	left.Store(int64(k - 1))
	_, _, err = proxy.Access(OpWrite, "k", bytes.Repeat([]byte{0xEE}, 8))
	if !transport.Ambiguous(err) {
		t.Fatalf("cut streamed write = %v, want an ambiguous failure", err)
	}
	// The head is observed once its handler has answered, after the
	// k−2 continuations that did arrive.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := arrived
		mu.Unlock()
		if n == k-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server observed %d frames of the cut stream, want %d", n, k-1)
		}
	}
	after, err := r.store.Get(string(ek[:]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a stream cut before its last frame changed the stored record")
	}

	// The pool redials in the background; until it does, accesses fail
	// definitely and the round stays parked.
	var got []byte
	for attempt := 0; ; attempt++ {
		got, _, err = proxy.Access(OpRead, "k", nil)
		if err == nil {
			break
		}
		if attempt == 40 {
			t.Fatalf("read after the cut stream: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !bytes.Equal(got, initial) {
		t.Errorf("read after the cut stream = %v, want the value from before it %v", got, initial)
	}
	e := proxy.counters.acquire("k")
	pending := e.pending
	e.mu.Unlock()
	if pending != nil {
		t.Error("the cut stream's round is still parked after a successful access")
	}
}
