package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A snapshot holds the process and host counters one measurement
// window is the difference of.
type snapshot struct {
	at         time.Time
	cpu        time.Duration // process user+sys
	allocBytes uint64
	allocs     uint64
	gcCPU      float64 // runtime estimate, CPU-seconds
	busyCPU    float64 // runtime estimate of non-idle CPU-seconds
	host       hostCPU
	sent, recv int64 // proxy→server traffic
	calls      int64
	writeCalls int64 // tapped Write calls and LBL tables, traced runs only
	tables     int64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func takeSnapshot(p *proxy, tap *wireTap) snapshot {
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes, s.allocs = ms.TotalAlloc, ms.Mallocs
	metrics.Read(rtSamples)
	s.gcCPU = rtSamples[0].Value.Float64()
	s.busyCPU = rtSamples[1].Value.Float64() - rtSamples[2].Value.Float64()
	s.host = readHostCPU()
	if p != nil {
		s.sent, s.recv, s.calls = p.client.TrafficStats()
	}
	if tap != nil {
		s.writeCalls, s.tables = tap.writeCalls.Load(), tap.tables.Load()
	}
	s.cpu = processCPU()
	s.at = time.Now()
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostCPU is the host's steal and total CPU time in /proc/stat
// jiffies, zero where it is unavailable.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h
}

// stealSince is the share of host CPU time stolen since prev.
func (h hostCPU) stealSince(prev hostCPU) float64 {
	if h.total <= prev.total {
		return 0
	}
	return float64(h.steal-prev.steal) / float64(h.total-prev.total)
}

// calm marks the entries whose steal share is at most the median
// steal share: at least half of them, and all of them when the host
// stole the same share throughout.
func calm(steal []float64) []bool {
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)-1)/2]
	keep := make([]bool, len(steal))
	for i, x := range steal {
		keep[i] = x <= limit
	}
	return keep
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
