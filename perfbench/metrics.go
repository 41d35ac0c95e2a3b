package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"saga/internal/schedulers"
)

// spec names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees. An operation is
// one sweep cell on the sweep workloads and one /v1/schedule request on
// serve_mixed; latencies are per operation, as a median and the highest
// percentile with at least ten samples beyond it in every run.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	s := []spec{
		{"schedulers.calls", "count"},
		{"schedulers.busy_s", "s"},
		{"schedulers.us_per_call", "us"},
	}
	for _, alg := range schedulers.ExperimentalNames {
		s = append(s,
			spec{"schedulers." + alg + ".calls", "count"},
			spec{"schedulers." + alg + ".busy_s", "s"},
			spec{"schedulers." + alg + ".us_per_call", "us"})
	}
	s = append(s,
		spec{"core.iters", "count"},
		spec{"core.self_s", "s"},
		spec{"core.self_us_per_iter", "us"},
		spec{"experiments.self_s", "s"},
		spec{"serialize.stores", "count"},
		spec{"serialize.store_s", "s"},
		spec{"serialize.store_bytes", "bytes"},
		spec{"runner.tail_s", "s"},
		spec{"runner.idle_frac", "fraction"},
		spec{"serve.cache.hit_ratio", "fraction"},
		spec{"serve.cache.evictions", "count"},
		spec{"serve.table_reuses", "count"},
		spec{"serve.pool.fresh_scratches", "count"},
		spec{"serve.handler_ms", "ms"},
		spec{"serve.transport_ms", "ms"},
		spec{"serve.hit_p50_ms", "ms"},
		spec{"serve.hit_p99_ms", "ms"},
		spec{"serve.miss_p50_ms", "ms"},
		spec{"serve.miss_p99_ms", "ms"},
	)
	for _, stage := range stageNames {
		s = append(s, spec{stage + ".small", "us"}, spec{stage + ".large", "us"})
	}
	s = append(s,
		spec{"runtime.alloc_bytes_per_op", "bytes"},
		spec{"runtime.gc_cycles", "count"},
		spec{"validity.validate_failures", "count"},
		spec{"validity.sim_rejects", "count"},
		spec{"validity.nonfinite_aborts", "count"},
	)
	for _, alg := range schedulers.ExperimentalNames {
		s = append(s,
			spec{"validity." + alg + ".validate_failures", "count"},
			spec{"validity." + alg + ".sim_rejects", "count"})
	}
	return append(s,
		spec{"tracing.overhead_frac", "fraction"},
		spec{"tracing.accounted_frac", "fraction"})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// windowStats groups samples (latency ms, completion time) into whole
// windows of length win and returns the median over windows of the
// window's completion rate per second and of each requested latency
// quantile. The trailing partial window is dropped unless it is the only
// one.
func windowStats(ends []time.Duration, ms []float64, win time.Duration, qs []float64) (rate float64, quants []float64) {
	var last time.Duration
	for _, e := range ends {
		last = max(last, e)
	}
	n := int(last / win)
	if n == 0 {
		n, win = 1, max(last, 1)
	}
	buckets := make([][]float64, n)
	for i, e := range ends {
		if w := int(e / win); w < n {
			buckets[w] = append(buckets[w], ms[i])
		}
	}
	rates := make([]float64, n)
	per := make([][]float64, len(qs))
	for w, b := range buckets {
		rates[w] = float64(len(b)) / win.Seconds()
		for i, q := range qs {
			per[i] = append(per[i], quantile(b, q))
		}
	}
	quants = make([]float64, len(qs))
	for i := range qs {
		quants[i] = median(per[i])
	}
	return median(rates), quants
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// heapSampler tracks the peak live heap (runtime/metrics heap object
// bytes, read without stopping the world) per measurement window.
type heapSampler struct {
	mu    sync.Mutex
	peak  uint64
	peaks []float64
	stop  chan struct{}
	wg    sync.WaitGroup
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// cut closes the current window, recording its peak.
func (h *heapSampler) cut() {
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	h.peak = 0
	h.mu.Unlock()
}

// finish stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks)
}

// runtimeCounters snapshots allocation and GC totals.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (a runtimeCounters) since(b runtimeCounters) runtimeCounters {
	return runtimeCounters{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// hostBlock records what the numbers were measured on: the CPU, the
// parallelism the Go runtime sees, a fixed calibration loop, and whether
// two goroutines actually run twice as much of it as one.
type hostBlock struct {
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	CalibNsPerOp  float64 `json:"calibration_ns_per_op"`
	ParallelRatio float64 `json:"parallel_ratio"`
}

func probeHost() hostBlock {
	h := hostBlock{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	const n = 20_000_000
	one := time.Since(timeCalib(1, n))
	h.CalibNsPerOp = float64(one.Nanoseconds()) / n
	two := time.Since(timeCalib(2, n))
	// Two goroutines each run the full loop; perfect scaling reads 2.
	h.ParallelRatio = 2 * one.Seconds() / two.Seconds()
	return h
}

// timeCalib runs g copies of a fixed xorshift loop concurrently and
// returns the start time.
func timeCalib(g, n int) time.Time {
	start := time.Now()
	var wg sync.WaitGroup
	sink := make([]uint64, g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := uint64(88172645463325252 + i)
			for k := 0; k < n; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			sink[i] = x
		}(i)
	}
	wg.Wait()
	return start
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
