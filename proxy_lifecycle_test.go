package ortoa

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"ortoa/internal/netsim"
	"ortoa/internal/transport"
)

// newProxyDeployment builds server ← client over serverLink, loads n
// keys ("key-000"… with value byte 0 = index), and returns the client
// plus a netsim listener for its proxy front end (not yet served).
func newProxyDeployment(t *testing.T, n, valueSize int, serverLink netsim.Link) (*Client, *netsim.Listener) {
	t.Helper()
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: valueSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	link := netsim.Listen(serverLink)
	go server.Serve(link)
	client, err := NewClient(ClientConfig{Protocol: ProtocolLBL, ValueSize: valueSize, Keys: GenerateKeys(), Conns: 4},
		func() (net.Conn, error) { return link.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	data := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := make([]byte, valueSize)
		v[0] = byte(i)
		data[fmt.Sprintf("key-%03d", i)] = v
	}
	if err := client.Load(data); err != nil {
		t.Fatal(err)
	}
	return client, netsim.Listen(netsim.Loopback)
}

// TestServeProxyShutdown is the regression test for the retained-
// server bug: Close must stop a running ServeProxy — the listener
// closes, ServeProxy returns, and end-user requests start failing —
// rather than leaking the accept loop and its connections.
func TestServeProxyShutdown(t *testing.T) {
	client, proxyLn := newProxyDeployment(t, 4, 8, netsim.Loopback)

	served := make(chan error, 1)
	go func() { served <- client.ServeProxy(proxyLn) }()

	users, err := DialProxy(proxyLn.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()
	if v, err := users.Read("key-001"); err != nil || v[0] != 1 {
		t.Fatalf("read before close = %v, %v", v, err)
	}

	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, transport.ErrClosed) {
			t.Errorf("ServeProxy returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeProxy still running after Close — proxy server leaked")
	}
	if _, err := users.Read("key-001"); err == nil {
		t.Error("read after close succeeded, want error")
	}

	// A front end started after Close must refuse immediately.
	if err := client.ServeProxy(netsim.Listen(netsim.Loopback)); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("ServeProxy after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := client.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestCloseDrainsInFlightProxyAccess checks the graceful half of
// shutdown: an end-user access already being proxied when Close is
// called completes and is answered, not cut mid-response.
func TestCloseDrainsInFlightProxyAccess(t *testing.T) {
	// A real RTT to the server keeps the access in flight long enough
	// for Close to overlap it.
	client, proxyLn := newProxyDeployment(t, 4, 8, netsim.Link{RTT: 60 * time.Millisecond})
	go client.ServeProxy(proxyLn)

	users, err := DialProxy(proxyLn.Dial, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()

	type result struct {
		v   []byte
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, err := users.Read("key-002")
		res <- result{v, err}
	}()
	// Let the request reach the proxy handler, then shut down while
	// its server round trip is still in the air.
	time.Sleep(15 * time.Millisecond)
	if err := client.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := <-res
	if r.err != nil {
		t.Fatalf("in-flight read was cut by Close: %v", r.err)
	}
	if r.v[0] != 2 {
		t.Errorf("in-flight read = %v, want first byte 2", r.v)
	}
}

// TestServeProxyAggregated runs end users through an aggregating
// front end: concurrent sessions coalesce into shared batch round
// trips and still each get their own answer.
func TestServeProxyAggregated(t *testing.T) {
	const n = 8
	const valueSize = 8
	client, proxyLn := newProxyDeployment(t, n, valueSize, netsim.Loopback)
	go client.ServeProxyOptions(proxyLn, ProxyServeOptions{
		AggWindow:   500 * time.Microsecond,
		AggMaxBatch: n,
	})

	users, err := DialProxy(proxyLn.Dial, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer users.Close()

	var wg sync.WaitGroup
	for u := 0; u < n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%03d", u)
			v, err := users.Read(key)
			if err != nil {
				t.Errorf("user %d read: %v", u, err)
				return
			}
			if v[0] != byte(u) {
				t.Errorf("user %d read %v, want first byte %d", u, v, u)
				return
			}
			nv := make([]byte, valueSize)
			nv[0] = byte(u + 100)
			if err := users.Write(key, nv); err != nil {
				t.Errorf("user %d write: %v", u, err)
				return
			}
			v, err = users.Read(key)
			if err != nil {
				t.Errorf("user %d reread: %v", u, err)
				return
			}
			if !bytes.Equal(v, nv) {
				t.Errorf("user %d reread %v, want %v", u, v, nv)
			}
		}(u)
	}
	wg.Wait()
}

// TestServeProxyAggregationRequiresLBL pins the configuration error:
// aggregation coalesces into batch round frames, which only the
// LBL protocol has.
func TestServeProxyAggregationRequiresLBL(t *testing.T) {
	server, err := NewServer(ServerConfig{Protocol: ProtocolBaseline2RTT, ValueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	link := netsim.Listen(netsim.Loopback)
	go server.Serve(link)
	client, err := NewClient(ClientConfig{Protocol: ProtocolBaseline2RTT, ValueSize: 8, Keys: GenerateKeys()},
		func() (net.Conn, error) { return link.Dial() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	err = client.ServeProxyOptions(netsim.Listen(netsim.Loopback), ProxyServeOptions{AggWindow: time.Millisecond})
	if err == nil {
		t.Fatal("aggregated ServeProxy under 2RTT succeeded, want error")
	}
}

// TestConcurrentSaveState is the regression test for the racing-save
// bug: WriteFileAtomic's temp name is deterministic, so unserialized
// concurrent saves of one path (periodic saver vs shutdown save)
// corrupted or lost snapshots. All concurrent saves must succeed and
// leave a loadable snapshot.
func TestConcurrentSaveState(t *testing.T) {
	client, _ := newProxyDeployment(t, 8, 8, netsim.Loopback)
	// Advance some counters so the snapshot has content.
	for i := 0; i < 8; i++ {
		if _, err := client.Read(fmt.Sprintf("key-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}

	path := t.TempDir() + "/counters.state"
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := client.SaveState(path); err != nil {
					t.Errorf("concurrent save: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := client.LoadState(path); err != nil {
		t.Fatalf("snapshot unreadable after concurrent saves: %v", err)
	}
	if v, err := client.Read("key-003"); err != nil || v[0] != 3 {
		t.Fatalf("read after reload = %v, %v", v, err)
	}
}
