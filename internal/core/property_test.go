package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"ortoa/internal/crypto/prf"
)

// TestQuickRequestSizeFormula: the §5.3.2 accounting exposed by
// LBLConfig must exactly match what buildRequest produces, for every
// mode, value size, operation, and counter.
func TestQuickRequestSizeFormula(t *testing.T) {
	f := prf.NewRandom()
	check := func(modeSel, sizeSel uint8, isWrite bool, ct uint16) bool {
		mode := allLBLModes()[int(modeSel)%len(allLBLModes())]
		size := int(sizeSel)%64 + 1
		cfg := LBLConfig{ValueSize: size, Mode: mode}
		proxy, err := NewLBLProxy(cfg, f, nil)
		if err != nil {
			return false
		}
		op := OpRead
		var value []byte
		if isWrite {
			op = OpWrite
			value = bytes.Repeat([]byte{0xA5}, size)
		}
		req, err := oneFrameRequest(proxy, op, "some-key", value, uint64(ct))
		if err != nil {
			return false
		}
		return len(req) == cfg.RequestBytesPerAccess()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupBitsRoundTrip: bit-group packing must be a bijection
// for every supported y and any value.
func TestQuickGroupBitsRoundTrip(t *testing.T) {
	check := func(value []byte, ySel uint8) bool {
		if len(value) == 0 {
			return true
		}
		y := []int{1, 2, 4}[int(ySel)%3]
		out := make([]byte, len(value))
		for g := 0; g < len(value)*8/y; g++ {
			setGroupBits(out, g, y, groupBits(value, g, y))
		}
		return bytes.Equal(out, value)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLBLRecordShape: BuildRecord output must match the size the
// config advertises, for every mode and size.
func TestQuickLBLRecordShape(t *testing.T) {
	f := prf.NewRandom()
	check := func(modeSel, sizeSel uint8) bool {
		mode := allLBLModes()[int(modeSel)%len(allLBLModes())]
		size := int(sizeSel)%64 + 1
		cfg := LBLConfig{ValueSize: size, Mode: mode}
		proxy, err := NewLBLProxy(cfg, f, nil)
		if err != nil {
			return false
		}
		ek, rec, err := proxy.BuildRecord("k", make([]byte, size))
		if err != nil {
			return false
		}
		return len(ek) == prf.Size && len(rec) == cfg.ServerBytesPerValue()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPadValue: padding must preserve the prefix and fill with
// zeros.
func TestQuickPadValue(t *testing.T) {
	check := func(v []byte, extra uint8) bool {
		size := len(v) + int(extra)
		out, err := PadValue(v, size)
		if err != nil {
			return false
		}
		if len(out) != size || !bytes.Equal(out[:len(v)], v) {
			return false
		}
		for _, b := range out[len(v):] {
			if b != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
