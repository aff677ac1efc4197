package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span is one timed interval of one access. Spans of one access
// share Trace; the access's root span has Parent 0.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// The stages an access splits into, in order. Each ends where the next
// begins: the proxy builds until the first request byte is written,
// the request is in transit until the server reads its last byte, the
// server works until it writes the first response byte, the response
// is in transit until the proxy reads its last byte, and the proxy
// recovers until the call returns.
var stageNames = []string{
	"core.proxy_build",
	"transport.request",
	"core.server",
	"transport.response",
	"core.proxy_recover",
}

// maxDumpedAccesses caps the span dump; the stage medians use every
// traced access.
const maxDumpedAccesses = 2000

// A spanTrace is the result of the sequential traced phase.
type spanTrace struct {
	spans     []span
	stageUs   [][]float64 // per stage, sorted
	rootUs    []float64   // sorted
	unmatched int         // accesses whose frames did not give one clean exchange
	// Request and response bytes each access put on the proxy→server
	// connection, by operation type.
	readShapes, writeShapes map[[2]int]int
}

// traceAccesses runs one caller sequentially for dur with frame events
// recorded, and splits each access into stage spans.
func (g *loadGen) traceAccesses(p *proxy, tap *wireTap, dur time.Duration) spanTrace {
	st := spanTrace{
		stageUs:     make([][]float64, len(stageNames)),
		readShapes:  map[[2]int]int{},
		writeShapes: map[[2]int]int{},
	}
	gen := g.nextGenerator()
	buf := make([]byte, g.w.valueSize)
	scratch := make([]byte, g.w.valueSize)
	tap.startRecording()
	defer tap.recording.Store(false)
	end := time.Now().Add(dur)
	nextID := 1
	for time.Now().Before(end) {
		tap.take()
		rec := g.do(p, gen.next(), g.now(), buf, scratch)
		g.hist.add(rec)
		bounds, shape, ok := exchange(tap.take(), g.epoch)
		if !ok || !rec.ok || bounds[0] < rec.start || bounds[3] > rec.end {
			st.unmatched++
			continue
		}
		if rec.write {
			st.writeShapes[shape]++
		} else {
			st.readShapes[shape]++
		}
		trace := len(st.rootUs) + 1
		st.rootUs = append(st.rootUs, float64(rec.end-rec.start)/1e3)
		root := nextID
		name := "ortoa.read"
		if rec.write {
			name = "ortoa.write"
		}
		dump := trace <= maxDumpedAccesses
		if dump {
			st.spans = append(st.spans, span{Trace: trace, ID: root, Name: name, Start: rec.start, End: rec.end})
		}
		edges := []int64{rec.start, bounds[0], bounds[1], bounds[2], bounds[3], rec.end}
		for i, n := range stageNames {
			if dump {
				st.spans = append(st.spans, span{Trace: trace, ID: root + 1 + i, Parent: root, Name: n, Start: edges[i], End: edges[i+1]})
			}
			st.stageUs[i] = append(st.stageUs[i], float64(edges[i+1]-edges[i])/1e3)
		}
		nextID = root + 1 + len(stageNames)
	}
	for _, xs := range st.stageUs {
		sort.Float64s(xs)
	}
	sort.Float64s(st.rootUs)
	return st
}

// exchange finds, among one access's frame events, the request the
// proxy wrote, its arrival at the server, the response the server
// wrote and its arrival at the proxy. It returns those four times
// (relative to epoch) and the request and response byte counts.
func exchange(evs []frameEvent, epoch time.Time) (bounds [4]int64, shape [2]int, ok bool) {
	var n [4]int
	for _, ev := range evs {
		at := int64(ev.at.Sub(epoch))
		switch {
		case ev.side == sideProxy && ev.write:
			n[0]++
			bounds[0] = at
			shape[0] += ev.bytes
		case ev.side == sideServer && !ev.write:
			n[1]++
			bounds[1] = at
		case ev.side == sideServer && ev.write:
			n[2]++
			bounds[2] = at
		default:
			n[3]++
			bounds[3] = at
			shape[1] += ev.bytes
		}
	}
	ok = n == [4]int{1, 1, 1, 1} &&
		bounds[0] <= bounds[1] && bounds[1] <= bounds[2] && bounds[2] <= bounds[3]
	return bounds, shape, ok
}

// medianUs returns each stage's median and the share of the median
// access those medians leave unexplained.
func (st spanTrace) medianUs() (stages []float64, unaccounted float64) {
	sum := 0.0
	for _, xs := range st.stageUs {
		m := quantile(xs, 0.5)
		stages = append(stages, m)
		sum += m
	}
	if access := quantile(st.rootUs, 0.5); access > 0 {
		unaccounted = 1 - sum/access
	}
	return stages, unaccounted
}

// sameShape reports whether reads and writes put identical byte counts
// on the proxy→server connection.
func (st spanTrace) sameShape() bool {
	if len(st.readShapes) == 0 || len(st.writeShapes) == 0 || len(st.readShapes) != len(st.writeShapes) {
		return false
	}
	for k := range st.readShapes {
		if _, ok := st.writeShapes[k]; !ok {
			return false
		}
	}
	return true
}

// dumpSpans writes the spans as JSON lines.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
