package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// A history streams every access record to a file, so that keeping
// them costs the measured process no memory while the load runs and
// peak_rss_mb measures the system rather than the bookkeeping. The
// records are read back once the load has stopped.
type history struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	err error
}

func newHistory(dir string) (*history, error) {
	f, err := os.CreateTemp(dir, "history-*.bin")
	if err != nil {
		return nil, err
	}
	return &history{f: f, w: bufio.NewWriter(f)}, nil
}

// recordLen is an encoded opRecord: flags, key, seq, due, start, end.
const recordLen = 1 + 4 + 8 + 3*8

func (h *history) add(ops ...opRecord) {
	var b [recordLen]byte
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, op := range ops {
		b[0] = 0
		for i, f := range []bool{op.write, op.ok, op.valid} {
			if f {
				b[0] |= 1 << i
			}
		}
		binary.LittleEndian.PutUint32(b[1:], uint32(op.key))
		binary.LittleEndian.PutUint64(b[5:], op.seq)
		binary.LittleEndian.PutUint64(b[13:], uint64(op.due))
		binary.LittleEndian.PutUint64(b[21:], uint64(op.start))
		binary.LittleEndian.PutUint64(b[29:], uint64(op.end))
		if _, err := h.w.Write(b[:]); err != nil && h.err == nil {
			h.err = err
		}
	}
}

// all returns every record added so far.
func (h *history) all() ([]opRecord, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err == nil {
		h.err = h.w.Flush()
	}
	if h.err != nil {
		return nil, fmt.Errorf("history: %w", h.err)
	}
	b, err := os.ReadFile(h.f.Name())
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	ops := make([]opRecord, len(b)/recordLen)
	for i := range ops {
		r := b[i*recordLen:]
		ops[i] = opRecord{
			write: r[0]&1 != 0, ok: r[0]&2 != 0, valid: r[0]&4 != 0,
			key:   int(binary.LittleEndian.Uint32(r[1:])),
			seq:   binary.LittleEndian.Uint64(r[5:]),
			due:   int64(binary.LittleEndian.Uint64(r[13:])),
			start: int64(binary.LittleEndian.Uint64(r[21:])),
			end:   int64(binary.LittleEndian.Uint64(r[29:])),
		}
	}
	return ops, nil
}

// close removes the file.
func (h *history) close() {
	h.f.Close()
	os.Remove(h.f.Name())
}
