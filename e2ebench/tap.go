package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
)

// The tap observes the proxy→server connections from outside the
// program: the client's dial func and the server's net.Listener are
// wrapped, and every Read and Write is parsed into transport frames.
// The frame layout is the transport's: a 4-byte little-endian length
// of everything after it, then a header whose byte 40 is the message
// type (42 header bytes in all).
const (
	frameHeaderLen = 42
	frameTypeOff   = 40
)

// Connection ends.
const (
	sideProxy  = 0 // the ortoa.Client's end, dialled through the tap
	sideServer = 1 // the ortoa.Server's end, accepted through the tap
)

// A frameEvent is one whole frame crossing a tapped connection end.
// For a written frame, at is the entry of the Write call carrying its
// first byte; for a read frame, the return of the Read call carrying
// its last byte. Both are recorded before the bytes can reach the
// peer or the reader, so an access's events are all in when it returns.
type frameEvent struct {
	side    int
	write   bool
	msgType byte
	bytes   int // whole frame, header included
	at      time.Time
}

// A wireTap counts traffic on every connection it wraps and, while
// recording, keeps each frame event for span reconstruction.
type wireTap struct {
	// tableBytes is one LBL access table; an LBL request frame carries
	// payload/tableBytes tables, since its other fields are far smaller.
	tableBytes int
	tables     atomic.Int64 // LBL tables the proxy sent
	writeCalls atomic.Int64 // Write calls on both ends
	recording  atomic.Bool
	mu         sync.Mutex
	events     []frameEvent
}

// dial wraps a dial func so the connections it makes are tapped as
// the proxy end.
func (t *wireTap) dial(d func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := d()
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: c, tap: t, side: sideProxy}, nil
	}
}

// listen wraps l so the connections it accepts are tapped as the
// server end.
func (t *wireTap) listen(l net.Listener) net.Listener { return &tapListener{Listener: l, tap: t} }

// startRecording clears and enables frame-event recording.
func (t *wireTap) startRecording() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
	t.recording.Store(true)
}

// take returns the events recorded since the last take and clears them.
func (t *wireTap) take() []frameEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev := append([]frameEvent(nil), t.events...)
	t.events = t.events[:0]
	return ev
}

func (t *wireTap) record(ev frameEvent) {
	if ev.side == sideProxy && ev.write && (ev.msgType == core.MsgLBLAccess || ev.msgType == core.MsgLBLAccessBatch) {
		t.tables.Add(int64((ev.bytes - frameHeaderLen) / t.tableBytes))
	}
	if !t.recording.Load() {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

type tapListener struct {
	net.Listener
	tap *wireTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap, side: sideServer}, nil
}

// A frameCursor follows frame boundaries through one direction of a
// byte stream.
type frameCursor struct {
	hdr    [frameHeaderLen]byte
	have   int // header bytes seen of the current frame
	remain int // payload bytes still to come once the header is whole
	total  int
	first  time.Time
}

// feed advances over b, which one call carried at time at, and reports
// each frame it completes with the times of its first and last bytes.
func (c *frameCursor) feed(b []byte, at time.Time, emit func(msgType byte, bytes int, first, last time.Time)) {
	for len(b) > 0 {
		if c.have == 0 {
			c.first = at
		}
		if c.have < frameHeaderLen {
			n := copy(c.hdr[c.have:], b)
			c.have += n
			b = b[n:]
			if c.have < frameHeaderLen {
				return
			}
			c.total = 4 + int(binary.LittleEndian.Uint32(c.hdr[:4]))
			c.remain = c.total - frameHeaderLen
		} else {
			n := min(c.remain, len(b))
			c.remain -= n
			b = b[n:]
		}
		if c.remain == 0 {
			emit(c.hdr[frameTypeOff], c.total, c.first, at)
			c.have = 0
		}
	}
}

// A tapConn is a net.Conn whose traffic the tap parses. A connection
// end has one reader goroutine, and the transport writes one frame per
// Write under its own lock; wmu keeps the cursor safe regardless.
type tapConn struct {
	net.Conn
	tap  *wireTap
	side int
	rd   frameCursor
	wmu  sync.Mutex
	wr   frameCursor
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.rd.feed(b[:n], time.Now(), func(mt byte, bytes int, _, last time.Time) {
			c.tap.record(frameEvent{side: c.side, msgType: mt, bytes: bytes, at: last})
		})
	}
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.tap.writeCalls.Add(1)
	c.wmu.Lock()
	c.wr.feed(b, time.Now(), func(mt byte, bytes int, first, _ time.Time) {
		c.tap.record(frameEvent{side: c.side, write: true, msgType: mt, bytes: bytes, at: first})
	})
	c.wmu.Unlock()
	return c.Conn.Write(b)
}
