package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
)

// The server-side handlers parse payloads from an untrusted network.
// Arbitrary bytes must produce errors, never panics or state
// corruption.

// seededLBLStore returns a server whose store holds keys "k" and "k2",
// the proxy that loaded them, and well-formed requests to seed the
// fuzzers: a one-frame access to "k" and a one-frame round of both keys.
func seededLBLStore(f *testing.F) (srv *LBLServer, proxy *LBLProxy, single, batch []byte) {
	f.Helper()
	store := kvstore.New()
	srv = NewLBLServer(store)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: 4, Mode: LBLPointPermute}, prf.NewRandom(), nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"k", "k2"} {
		ek, rec, err := proxy.BuildRecord(k, []byte{1, 2, 3, 4})
		if err != nil {
			f.Fatal(err)
		}
		store.Put(ek, rec)
	}
	if single, err = oneFrameRequest(proxy, OpRead, "k", nil, 0); err != nil {
		f.Fatal(err)
	}
	if batch, err = roundFrames(proxy, 1, "k", "k2"); err != nil {
		f.Fatal(err)
	}
	return srv, proxy, single, batch
}

// roundFrames returns the k frames of a read round of keys at counter
// 0, under p's geometry with a chunk budget that makes it exactly k
// frames, concatenated as one seed: each frame is prefixed with its
// length byte pair so splitFrames can take them apart again.
func roundFrames(p *LBLProxy, k int, keys ...string) ([]byte, error) {
	cfg := p.Config()
	total := len(keys) * cfg.Groups()
	cfg.StreamChunkBytes = chunkGroups(total, k) * cfg.groupLen()
	if k == 1 {
		cfg.StreamChunkBytes = 0
	}
	q, err := NewLBLProxy(cfg, p.prf, nil)
	if err != nil {
		return nil, err
	}
	rks := make([]roundKey, len(keys))
	for i, key := range keys {
		rks[i] = roundKey{op: OpRead, key: key}
	}
	frames, err := requestFrames(q, rks...)
	if err != nil {
		return nil, err
	}
	if len(frames) != k {
		return nil, fmt.Errorf("round went out as %d frames, want %d", len(frames), k)
	}
	if k == 1 {
		return frames[0], nil
	}
	var out []byte
	for _, f := range frames {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(f)))
		out = append(out, f...)
	}
	return out, nil
}

// splitFrames undoes roundFrames' concatenation on arbitrary input:
// a head and then continuation frames, each after a two-byte length.
func splitFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) >= 2 {
		n := int(binary.LittleEndian.Uint16(in))
		in = in[2:]
		n = min(n, len(in))
		frames = append(frames, in[:n])
		in = in[n:]
	}
	return frames
}

// FuzzLBLServerPayload feeds arbitrary one-frame requests to the
// unified access decoder: single keys, batches, and heads announcing
// continuation frames that never come.
func FuzzLBLServerPayload(f *testing.F) {
	srv, _, single, batch := seededLBLStore(f)
	f.Add(single)
	f.Add([]byte{})
	f.Add(make([]byte, 17))
	f.Add(batch)
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Errors are expected; panics are bugs.
		srv.handleAccess(context.Background(), payload) //nolint:errcheck
	})
}

// FuzzLBLServerStream feeds a head and its continuation frames to the
// unified access decoder through a connectionless StreamReader. Hostile
// frames — wrong counts, geometry, lengths, missing or surplus frames —
// must give errors, never a panic, and the decoder never holds more
// than one key's table beyond the frame in hand.
func FuzzLBLServerStream(f *testing.F) {
	srv, proxy, _, _ := seededLBLStore(f)
	for _, keys := range [][]string{{"k"}, {"k", "k2"}} {
		seed, err := roundFrames(proxy, 3, keys...)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		frames := splitFrames(in)
		if len(frames) == 0 {
			return
		}
		ctx := transport.WithStream(context.Background(), frames[1:])
		srv.handleAccess(ctx, frames[0]) //nolint:errcheck
	})
}

func FuzzTEEServerPayload(f *testing.F) {
	store := kvstore.New()
	srv, err := NewTEEServer(store, 0)
	if err != nil {
		f.Fatal(err)
	}
	store.Put("0123456789abcdef", []byte("sealed-record"))
	f.Add([]byte("0123456789abcdef\x05aaaaa\x05bbbbb"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		srv.handleAccess(context.Background(), payload) //nolint:errcheck
	})
}

func FuzzLoaderPayload(f *testing.F) {
	store := kvstore.New()
	f.Add([]byte{1, 1, 'k', 1, 'v'})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Reconstruct the loader handler logic through a server the
		// same way RegisterLoader does, via a direct call.
		handler := loaderHandler(store)
		handler(context.Background(), payload) //nolint:errcheck
	})
}

func FuzzLBLRecordParse(f *testing.F) {
	f.Add([]byte{byte(LBLPointPermute)}, uint16(4))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, groups uint16) {
		g := int(groups)%64 + 1
		parseLBLRecord(raw, LBLPointPermute, g) //nolint:errcheck
		parseLBLRecord(raw, LBLBasic, g)        //nolint:errcheck
		parseLBLRecord(raw, LBLWide, g)         //nolint:errcheck
	})
}
