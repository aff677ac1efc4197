package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsTiny runs every workload of BENCHMARK.json at a tiny key
// count and open-loop rate, plain and traced, and checks that the run
// is correct and reports exactly the named metrics with their units.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			res, err := run(options{workload: wl.Name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), keys: 64, rate: 50}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace && !strings.Contains(out.String(), "attrib.unexplained_frac") {
				t.Errorf("%s: no attribution table in\n%s", wl.Name, out.String())
			}
			if !strings.Contains(out.String(), `"steal_frac"`) {
				t.Errorf("%s trace=%v: no host record in\n%s", wl.Name, trace, out.String())
			}
		}
	}
}

func TestCheckHistory(t *testing.T) {
	w := func(seq uint64, start, end int64) opRecord {
		return opRecord{write: true, ok: true, key: 1, seq: seq, start: start, end: end}
	}
	r := func(seq uint64, start, end int64) opRecord {
		return opRecord{ok: true, valid: true, key: 1, seq: seq, start: start, end: end}
	}
	for _, tc := range []struct {
		name string
		ops  []opRecord
		bad  int
	}{
		{"initial value", []opRecord{r(0, 1, 2)}, 0},
		{"latest write", []opRecord{w(1, 1, 2), r(1, 3, 4)}, 0},
		{"initial after acknowledged write", []opRecord{w(1, 1, 2), r(0, 3, 4)}, 1},
		{"overwritten write", []opRecord{w(1, 1, 2), w(2, 3, 4), r(1, 5, 6)}, 1},
		{"concurrent writes either order", []opRecord{w(1, 1, 4), w(2, 2, 3), r(1, 5, 6), r(2, 5, 6)}, 0},
		{"write in flight", []opRecord{w(1, 2, 9), r(1, 3, 4), r(0, 3, 4)}, 0},
		{"write not yet begun", []opRecord{w(1, 5, 6), r(1, 1, 2)}, 1},
		{"unknown sequence", []opRecord{r(7, 1, 2)}, 1},
		{"failed write may land late", []opRecord{{write: true, key: 1, seq: 1, start: 1, end: 2}, w(2, 3, 4), r(1, 5, 6)}, 0},
		{"value of another key", []opRecord{{ok: true, key: 1, start: 1, end: 2}}, 1},
	} {
		if got := checkHistory(tc.ops); got != tc.bad {
			t.Errorf("%s: %d bad reads, want %d", tc.name, got, tc.bad)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := make([]byte, 160)
	scratch := make([]byte, 160)
	fillValue(v, 3, 42, 9)
	if seq, ok := decodeValue(v, 3, 42, 160, scratch); !ok || seq != 9 {
		t.Fatalf("decode = %d, %v", seq, ok)
	}
	if _, ok := decodeValue(v, 3, 41, 160, scratch); ok {
		t.Fatal("value decoded for the wrong key")
	}
	v[100] ^= 1
	if _, ok := decodeValue(v, 3, 42, 160, scratch); ok {
		t.Fatal("corrupted value decoded")
	}
}

// TestFrameCursor feeds three frames, one with no payload, in chunks
// of several sizes: each frame must be reported whole, by the call
// that carries its last byte.
func TestFrameCursor(t *testing.T) {
	frame := func(msgType byte, payload int) []byte {
		b := make([]byte, frameHeaderLen+payload)
		b[0] = byte(frameHeaderLen - 4 + payload)
		b[frameTypeOff] = msgType
		return b
	}
	stream := append(append(frame(1, 0), frame(2, 30)...), frame(3, 5)...)
	ends := []int{42, 114, 161}
	for _, step := range []int{1, 7, 42, 50, len(stream)} {
		var c frameCursor
		var got, want []string
		for i, end := range ends {
			want = append(want, fmt.Sprintf("type %d, %d bytes, call %d", i+1, end-[]int{0, 42, 114}[i], (end-1)/step))
		}
		for call := 0; call*step < len(stream); call++ {
			chunk := stream[call*step : min((call+1)*step, len(stream))]
			c.feed(chunk, time.Now(), func(mt byte, n int, _, _ time.Time) {
				got = append(got, fmt.Sprintf("type %d, %d bytes, call %d", mt, n, call))
			})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("step %d: got %v, want %v", step, got, want)
		}
	}
}

func TestCalm(t *testing.T) {
	for _, tc := range []struct {
		steal []float64
		want  string
	}{
		{[]float64{0, 0, 0, 0}, "[true true true true]"},
		{[]float64{0.3, 0, 0.1, 0.5}, "[false true true false]"},
		{[]float64{0.2, 0, 0.2, 0.2, 0.4}, "[true true true true false]"},
	} {
		if got := fmt.Sprint(calm(tc.steal)); got != tc.want {
			t.Errorf("calm(%v) = %s, want %s", tc.steal, got, tc.want)
		}
	}
}
