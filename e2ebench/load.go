package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A loadGen drives accesses at a proxy and keeps every access it made
// in one history, which the correctness check reads at the end.
type loadGen struct {
	w       workload
	seed    uint64
	epoch   time.Time
	zipf    *zipf
	names   []string
	seq     atomic.Uint64 // write sequence numbers; 0 is the loaded value
	streams int           // generator streams handed out so far
	hist    *history

	errMu sync.Mutex
	errs  map[string]int // failed accesses by error text
}

// newLoadGen returns a generator for w whose history lives in dir;
// close it to remove the history.
func newLoadGen(w workload, seed uint64, dir string) (*loadGen, error) {
	hist, err := newHistory(dir)
	if err != nil {
		return nil, err
	}
	g := &loadGen{w: w, seed: seed, epoch: time.Now(), zipf: newZipf(w.keys, zipfS), hist: hist}
	for i := 0; i < w.keys; i++ {
		g.names = append(g.names, keyName(i))
	}
	return g, nil
}

func (g *loadGen) close() { g.hist.close() }

func (g *loadGen) now() int64 { return int64(time.Since(g.epoch)) }

func (g *loadGen) nextGenerator() *generator {
	g.streams++
	return newGenerator(g.zipf, g.seed, g.streams)
}

// do performs one access and returns its record. buf and scratch are
// value-sized buffers the caller owns for the duration of the call.
func (g *loadGen) do(p *proxy, r request, due int64, buf, scratch []byte) opRecord {
	rec := opRecord{write: r.write, key: r.key, due: due}
	if r.write {
		rec.seq = g.seq.Add(1)
		fillValue(buf, g.seed, r.key, rec.seq)
		rec.start = g.now()
		err := p.write(g.names[r.key], buf)
		rec.end = g.now()
		rec.ok = g.noteErr(err)
		return rec
	}
	rec.start = g.now()
	v, err := p.read(g.names[r.key])
	rec.end = g.now()
	if rec.ok = g.noteErr(err); rec.ok {
		rec.seq, rec.valid = decodeValue(v, g.seed, r.key, g.w.valueSize, scratch)
	}
	return rec
}

// noteErr counts a failed access's error and reports whether there was
// none.
func (g *loadGen) noteErr(err error) bool {
	if err == nil {
		return true
	}
	g.errMu.Lock()
	if g.errs == nil {
		g.errs = map[string]int{}
	}
	g.errs[err.Error()]++
	g.errMu.Unlock()
	return false
}

// A window is one measured interval of load, snapshotted at the edges
// of windowSlices equal slices.
type window struct{ snaps []snapshot }

// windowSlices is how many slices a window is cut into. Statistics are
// taken over the calm ones, in which the host stole no more CPU time
// than in the median slice.
const windowSlices = 40

// run drives p with the workload's load shape for warm+dur and
// measures the last dur.
func (g *loadGen) run(p *proxy, tap *wireTap, warm, dur time.Duration) window {
	if g.w.rate > 0 {
		return g.openLoop(p, tap, warm, dur)
	}
	return g.closedLoop(p, tap, warm, dur)
}

// closedLoop runs w.callers callers that each issue their next access
// as soon as the previous one returns; each access is due when its
// caller's previous one ended.
func (g *loadGen) closedLoop(p *proxy, tap *wireTap, warm, dur time.Duration) window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < g.w.callers; i++ {
		gen := g.nextGenerator()
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, g.w.valueSize)
			scratch := make([]byte, g.w.valueSize)
			due := g.now()
			for !stop.Load() {
				rec := g.do(p, gen.next(), due, buf, scratch)
				g.hist.add(rec)
				due = rec.end
			}
		}()
	}
	win := g.measure(p, tap, warm, dur)
	stop.Store(true)
	wg.Wait()
	return win
}

// maxOpenInFlight bounds the open loop's outstanding accesses; an
// access due while the bound is reached is refused and counts as
// failed. At 600/s it allows a stall of several seconds.
const maxOpenInFlight = 4096

var errRefused = errors.New("refused: open-loop in-flight bound reached")

// openLoop issues accesses from one generator on a fixed schedule of
// w.rate per second, each on its own goroutine, whether or not earlier
// ones have returned. Each access is timed from when it was due.
func (g *loadGen) openLoop(p *proxy, tap *wireTap, warm, dur time.Duration) window {
	gen := g.nextGenerator()
	interval := time.Duration(float64(time.Second) / g.w.rate)
	total := int((warm + dur) / interval)
	ops := make([]opRecord, total)
	sem := make(chan struct{}, maxOpenInFlight)
	var wg sync.WaitGroup
	winc := make(chan window, 1)
	go func() { winc <- g.measure(p, tap, warm, dur) }()
	start := g.now()
	for i := range ops {
		r := gen.next()
		due := start + int64(i)*int64(interval)
		if d := time.Duration(due - g.now()); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			now := g.now()
			ops[i] = opRecord{write: r.write, key: r.key, due: due, start: now, end: now}
			g.noteErr(errRefused)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, g.w.valueSize)
			ops[i] = g.do(p, r, due, buf, buf)
			<-sem
		}(i)
	}
	wg.Wait()
	g.hist.add(ops...)
	return <-winc
}

// measure sleeps through the warm-up, then snapshots the edges of
// each slice of dur.
func (g *loadGen) measure(p *proxy, tap *wireTap, warm, dur time.Duration) window {
	time.Sleep(warm)
	w := window{snaps: []snapshot{takeSnapshot(p, tap)}}
	start := w.snaps[0].at
	for i := 1; i <= windowSlices; i++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(i) / windowSlices)))
		w.snaps = append(w.snaps, takeSnapshot(p, tap))
	}
	return w
}

// windowStats are the end-to-end figures of a window's calm slices.
type windowStats struct {
	done            int // accesses that succeeded
	seconds         float64
	readMs, writeMs []float64 // sorted latencies
	lateMs          float64   // mean lateness behind the due time
	cpuUs           float64   // per completed access
	allocB, allocs  float64   // per completed access
	reqB, respB     float64   // per completed access
	callsPerOp      float64
	writeCallsPerOp float64
	tablesPerOp     float64
	gcFrac          float64
	steal           float64 // over the whole window
	calmSteal       float64 // over the slices the figures come from
}

// stats summarizes the accesses that ended inside w's calm slices.
func (g *loadGen) stats(w window) (windowStats, error) {
	var s windowStats
	ops, err := g.hist.all()
	if err != nil {
		return s, err
	}
	n := len(w.snaps) - 1
	s.steal = w.snaps[n].host.stealSince(w.snaps[0].host)
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = w.snaps[i+1].host.stealSince(w.snaps[i].host)
	}
	keep := calm(steal)
	var d snapshot // sums over the calm slices
	for i := range n {
		if !keep[i] {
			continue
		}
		a, b := w.snaps[i], w.snaps[i+1]
		s.seconds += b.at.Sub(a.at).Seconds()
		d.cpu += b.cpu - a.cpu
		d.allocBytes += b.allocBytes - a.allocBytes
		d.allocs += b.allocs - a.allocs
		d.gcCPU += b.gcCPU - a.gcCPU
		d.busyCPU += b.busyCPU - a.busyCPU
		d.host.steal += b.host.steal - a.host.steal
		d.host.total += b.host.total - a.host.total
		d.sent += b.sent - a.sent
		d.recv += b.recv - a.recv
		d.calls += b.calls - a.calls
		d.writeCalls += b.writeCalls - a.writeCalls
		d.tables += b.tables - a.tables
	}
	s.calmSteal = d.host.stealSince(hostCPU{})
	edges := make([]int64, n+1)
	for i, snap := range w.snaps {
		edges[i] = int64(snap.at.Sub(g.epoch))
	}
	var late float64
	for _, op := range ops {
		if !op.ok || op.end < edges[0] || op.end >= edges[n] {
			continue
		}
		i := sort.Search(n, func(i int) bool { return edges[i+1] > op.end })
		if !keep[i] {
			continue
		}
		s.done++
		ms := float64(op.end-op.due) / 1e6
		if op.write {
			s.writeMs = append(s.writeMs, ms)
		} else {
			s.readMs = append(s.readMs, ms)
		}
		late += float64(op.start-op.due) / 1e6
	}
	sort.Float64s(s.readMs)
	sort.Float64s(s.writeMs)
	done := float64(max(s.done, 1))
	s.lateMs = late / done
	s.cpuUs = float64(d.cpu) / 1e3 / done
	s.allocB = float64(d.allocBytes) / done
	s.allocs = float64(d.allocs) / done
	s.reqB = float64(d.sent) / done
	s.respB = float64(d.recv) / done
	s.callsPerOp = float64(d.calls) / done
	s.writeCallsPerOp = float64(d.writeCalls) / done
	s.tablesPerOp = float64(d.tables) / done
	if d.busyCPU > 0 {
		s.gcFrac = d.gcCPU / d.busyCPU
	}
	return s, nil
}

// quantile returns the q-quantile of sorted xs by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
