package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ortoa"
)

// A server is an ortoa.Server serving on a TCP loopback port.
type server struct {
	srv  *ortoa.Server
	addr string
	done chan struct{}
}

// newServer starts a server for w. With a tap, its accepted
// connections are tapped as the server end.
func newServer(w workload, tap *wireTap) (*server, error) {
	srv, err := ortoa.NewServer(ortoa.ServerConfig{Protocol: w.protocol, ValueSize: w.valueSize})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	if tap != nil {
		ln = tap.listen(ln)
	}
	go func() {
		defer close(s.done)
		srv.Serve(ln) //nolint:errcheck // always ErrClosed after close
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// A proxy is the trusted side: an ortoa.Client connected to a server
// and, for aggregating workloads, the front end it serves and the
// end users' ortoa.ProxyClient.
type proxy struct {
	w         workload
	client    *ortoa.Client
	users     *ortoa.ProxyClient
	frontDone chan struct{}
}

// newProxy connects a proxy for w to s. With a tap, its server
// connections are tapped as the proxy end; with metrics, the client is
// instrumented (ClientConfig.Metrics set).
func newProxy(w workload, s *server, keys ortoa.Keys, tap *wireTap, metrics bool) (*proxy, error) {
	dial := func() (net.Conn, error) { return net.Dial("tcp", s.addr) }
	if tap != nil {
		dial = tap.dial(dial)
	}
	cfg := ortoa.ClientConfig{Protocol: w.protocol, ValueSize: w.valueSize, Keys: keys, Conns: conns}
	if metrics {
		cfg.Metrics = ortoa.NewMetricsRegistry()
	}
	client, err := ortoa.NewClient(cfg, dial)
	if err != nil {
		return nil, err
	}
	p := &proxy{w: w, client: client}
	if w.aggWindow <= 0 {
		return p, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		client.Close()
		return nil, err
	}
	p.frontDone = make(chan struct{})
	go func() {
		defer close(p.frontDone)
		client.ServeProxyOptions(ln, ortoa.ProxyServeOptions{AggWindow: w.aggWindow}) //nolint:errcheck // ErrClosed after close
	}()
	addr := ln.Addr().String()
	p.users, err = ortoa.DialProxy(func() (net.Conn, error) { return net.Dial("tcp", addr) }, conns)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// provisionAndLoad attests a TEE server and bulk-loads data.
func (p *proxy) provisionAndLoad(data map[string][]byte) error {
	if p.w.protocol == ortoa.ProtocolTEE {
		if err := p.client.Provision(); err != nil {
			return fmt.Errorf("provision: %w", err)
		}
	}
	if err := p.client.Load(data); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	return nil
}

func (p *proxy) read(key string) ([]byte, error) {
	if p.users != nil {
		return p.users.Read(key)
	}
	return p.client.Read(key)
}

func (p *proxy) write(key string, v []byte) error {
	if p.users != nil {
		return p.users.Write(key, v)
	}
	return p.client.Write(key, v)
}

func (p *proxy) close() {
	if p.users != nil {
		p.users.Close()
	}
	p.client.Close()
	if p.frontDone != nil {
		<-p.frontDone
	}
}

// handOver replaces p by a proxy with the other metrics setting on the
// same server. Under LBL the access counters carry across through a
// SaveState file in dir, so the new proxy continues the key schedule;
// under TEE the new client provisions the enclave again.
func handOver(p *proxy, s *server, keys ortoa.Keys, tap *wireTap, metrics bool, dir string) (*proxy, error) {
	path := filepath.Join(dir, "counters.state")
	lbl := p.w.protocol == ortoa.ProtocolLBL
	if lbl {
		if err := p.client.SaveState(path); err != nil {
			return nil, fmt.Errorf("save state: %w", err)
		}
	}
	p.close()
	q, err := newProxy(p.w, s, keys, tap, metrics)
	if err != nil {
		return nil, err
	}
	if lbl {
		err = q.client.LoadState(path)
		if rmErr := os.Remove(path); err == nil {
			err = rmErr
		}
	} else {
		err = q.client.Provision()
	}
	if err != nil {
		q.close()
		return nil, fmt.Errorf("hand over: %w", err)
	}
	return q, nil
}

// deployment is a server with its proxy.
type deployment struct {
	srv *server
	px  *proxy
}

func (d *deployment) close() {
	if d.px != nil {
		d.px.close()
	}
	d.srv.close()
}

// deploy stands up w from scratch and loads data, returning the time
// from NewServer through Load (and Provision for TEE).
func deploy(w workload, keys ortoa.Keys, data map[string][]byte, tap *wireTap) (*deployment, time.Duration, error) {
	start := time.Now()
	srv, err := newServer(w, tap)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{srv: srv}
	d.px, err = newProxy(w, srv, keys, tap, false)
	if err == nil {
		err = d.px.provisionAndLoad(data)
	}
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("deploy %s: %w", w.name, err)
	}
	return d, time.Since(start), nil
}
