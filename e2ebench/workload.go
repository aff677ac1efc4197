package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"ortoa"
)

// A workload is one traffic mix the benchmark runs against the public
// ortoa API over TCP loopback, with server and proxy in this process.
type workload struct {
	name      string
	protocol  ortoa.Protocol
	keys      int
	valueSize int
	// callers is the closed-loop caller count; with rate > 0 the load
	// is open loop at rate accesses/s from one generator instead.
	callers int
	rate    float64
	// aggWindow > 0 puts end users on ortoa.ProxyClient in front of a
	// proxy aggregating over this window.
	aggWindow time.Duration
}

// Two callers and two connections per hop match the two CPUs the
// benchmark was sized on; ClientConfig.Conns is 2 everywhere. Every
// workload draws keys zipf 0.99 and writes half its accesses, the
// paper's default mix with YCSB's hot-key skew.
const (
	callers   = 2
	conns     = 2
	zipfS     = 0.99
	writeFrac = 0.5
)

var workloads = []workload{
	// The paper's and ortoa-proxy's defaults. Per-entry label crypto is
	// nearly all the CPU (2,560 seals per table plus the server's trial
	// opens) and the ~109 MB server store is far beyond the caches.
	{
		name:     "lbl-160B",
		protocol: ortoa.ProtocolLBL, keys: 10000, valueSize: 160,
		callers: callers,
	},
	// The same one-round-trip access with no label crypto: transport
	// framing, syscalls, allocation, dispatch and the kvstore dominate,
	// so a label-crypto change must not move it.
	{
		name:     "tee-160B",
		protocol: ortoa.ProtocolTEE, keys: 10000, valueSize: 160,
		callers: callers,
	},
	// The §2.1 deployment: end users on ortoa.ProxyClient through a
	// proxy aggregating over 1 ms windows, open loop at about 40% of
	// lbl-160B's capacity on two CPUs. It takes the paths lbl-160B never
	// does: the front-end hop, aggregator windows, duplicate hot keys in
	// one window and batch frames.
	{
		name:     "agg-160B-open",
		protocol: ortoa.ProtocolLBL, keys: 10000, valueSize: 160,
		rate: 600, aggWindow: time.Millisecond,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// A zipf draws key indices in [0, n) with P(i) ∝ 1/(i+1)^s from a
// cumulative table.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// A request is one generated access.
type request struct {
	write bool
	key   int
}

// A generator yields one caller's deterministic request stream.
type generator struct {
	rng  *rand.Rand
	zipf *zipf
}

func newGenerator(z *zipf, seed uint64, stream int) *generator {
	return &generator{rng: rand.New(rand.NewPCG(seed, uint64(stream)+1)), zipf: z}
}

func (g *generator) next() request {
	return request{key: g.zipf.draw(g.rng), write: g.rng.Float64() < writeFrac}
}

func keyName(i int) string { return fmt.Sprintf("user%06d", i) }

// Every value embeds its key index and a sequence number, followed by
// filler derived from (seed, key, seq), so a read identifies exactly
// which write (seq ≥ 1) or initial load (seq 0) it returned.
const valueTagLen = 16

func fillValue(dst []byte, seed uint64, key int, seq uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(key))
	binary.LittleEndian.PutUint64(dst[8:16], seq)
	x := seed ^ uint64(key)*0x9E3779B97F4A7C15 ^ seq*0xC2B2AE3D27D4EB4F
	for i := valueTagLen; i < len(dst); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], z)
		copy(dst[i:], b[:])
	}
}

// decodeValue returns the sequence number v carries if v is exactly
// the value fillValue makes for key.
func decodeValue(v []byte, seed uint64, key, size int, scratch []byte) (uint64, bool) {
	if len(v) != size || size < valueTagLen || binary.LittleEndian.Uint64(v[0:8]) != uint64(key) {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(v[8:16])
	fillValue(scratch[:size], seed, key, seq)
	for i := range v {
		if v[i] != scratch[i] {
			return 0, false
		}
	}
	return seq, true
}

func initialData(w workload, seed uint64) map[string][]byte {
	data := make(map[string][]byte, w.keys)
	for i := 0; i < w.keys; i++ {
		v := make([]byte, w.valueSize)
		fillValue(v, seed, i, 0)
		data[keyName(i)] = v
	}
	return data
}

// An opRecord is one completed access as the caller saw it. Times are
// nanoseconds since the run's epoch.
type opRecord struct {
	write      bool
	ok         bool // returned without error
	valid      bool // a read's value decoded for its key
	key        int
	seq        uint64 // written, or read back
	due        int64  // when the access was due to start
	start, end int64
}

// checkHistory verifies every read against the writes: it must return
// the initial value or a write to the same key that began before the
// read ended, and no write to that key may lie wholly between the end
// of that value's write and the start of the read (the value would be
// stale). It returns the number of reads that fail.
func checkHistory(ops []opRecord) (bad int) {
	type write struct{ start, end int64 }
	type keyHist struct {
		bySeq  map[uint64]write
		ends   []write // acknowledged writes, sorted by end
		maxBeg []int64 // running max of start over ends
	}
	hist := map[int]*keyHist{}
	get := func(k int) *keyHist {
		h := hist[k]
		if h == nil {
			h = &keyHist{bySeq: map[uint64]write{0: {start: math.MinInt64, end: math.MinInt64}}}
			hist[k] = h
		}
		return h
	}
	for _, op := range ops {
		if !op.write {
			continue
		}
		h := get(op.key)
		if op.ok {
			h.bySeq[op.seq] = write{op.start, op.end}
			h.ends = append(h.ends, write{op.start, op.end})
		} else {
			// A failed write may still take effect, at any later time.
			h.bySeq[op.seq] = write{op.start, math.MaxInt64}
		}
	}
	for _, h := range hist {
		sort.Slice(h.ends, func(i, j int) bool { return h.ends[i].end < h.ends[j].end })
		h.maxBeg = make([]int64, len(h.ends))
		m := int64(math.MinInt64)
		for i, w := range h.ends {
			m = max(m, w.start)
			h.maxBeg[i] = m
		}
	}
	for _, op := range ops {
		if op.write || !op.ok {
			continue
		}
		if !op.valid {
			bad++
			continue
		}
		h := get(op.key)
		w, found := h.bySeq[op.seq]
		if !found || w.start > op.end {
			bad++
			continue
		}
		// Acknowledged writes that ended before the read began.
		i := sort.Search(len(h.ends), func(i int) bool { return h.ends[i].end >= op.start })
		if i > 0 && h.maxBeg[i-1] > w.end {
			bad++
		}
	}
	return bad
}
