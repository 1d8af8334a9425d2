package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the p99 rule: the nearest-rank 99th percentile when
// at least ten samples lie beyond it, otherwise the highest rank that
// still has ten samples beyond it (the highest percentile the sample
// supports).
func tailPercentile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx > n-11 {
		idx = n - 11
	}
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's maximum resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime counters the runtime.* layer
// metrics difference: bytes allocated, and GC versus total CPU.
type runtimeSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// runtimeLayers fills the runtime.* layer metrics for ops operations run
// between a and b.
func runtimeLayers(out *outcome, a, b runtimeSample, ops int) {
	if ops > 0 {
		out.layers["runtime.alloc_kb_per_op"] = metric{(b.allocBytes - a.allocBytes) / 1024 / float64(ops), "KiB"}
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		out.layers["runtime.gc_cpu_share"] = metric{(b.gcCPU - a.gcCPU) / d, "ratio"}
	}
}

// envRecord describes the machine a result was measured on, so a noisy
// run can be explained: hypervisor steal shows in the /proc/stat delta.
type envRecord struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealTicks int64   `json:"steal_ticks"`
	ClockTicks int     `json:"ticks_per_s"`
	WallS      float64 `json:"wall_s"`

	stealStart int64
	start      time.Time
}

func startEnv() *envRecord {
	return &envRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ClockTicks: 100, // USER_HZ on Linux
		stealStart: stealTicks(),
		start:      time.Now(),
	}
}

func (e *envRecord) finish() *envRecord {
	e.StealTicks = stealTicks() - e.stealStart
	e.WallS = time.Since(e.start).Seconds()
	return e
}

// stealTicks reads the host-wide steal counter from /proc/stat (-1 when
// unavailable).
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

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
