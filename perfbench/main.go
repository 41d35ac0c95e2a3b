// Command perfbench is the repository benchmark: one command that runs a
// named workload against the SAGA/PISA library and daemon, checks every
// output, and prints its metrics as one JSON line.
//
//	perfbench --workload pisa_grid --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	pisa_grid         the Fig 4 pairwise PISA grid with a streaming .gz store
//	appspecific_sweep Section VII blocks with the legacy JSON store
//	serve_mixed       an in-process `saga serve` daemon under mixed traffic
//
// With --trace 0 the final line carries the end-to-end metrics. With
// --trace 1 the same untraced measurement runs first, then a traced one
// (timing wrappers around each layer's public entry points), and the
// final line carries the per-layer metrics plus the tracing overhead.
// Earlier stdout lines hold a detail record: the host block, the output
// digest, and per-algorithm breakdowns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives: the generated-input seed,
// the measuring budget, the worker/client count, and a private work
// directory inside the checkout.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workers  int
	workDir  string
}

// outcome is a workload's report. e2e holds the end-to-end metrics of
// the untraced measurement; layers (trace runs only) the per-layer ones.
type outcome struct {
	problems  []string
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	detail    map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"pisa_grid":         runPISAGrid,
	"appspecific_sweep": runAppSpecific,
	"serve_mixed":       runServeMixed,
}

func main() {
	name := flag.String("workload", "", "workload name: pisa_grid, appspecific_sweep or serve_mixed")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measuring time per phase")
	trace := flag.Int("trace", 0, "1 = also run the traced phase and report per-layer metrics")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for checkpoint stores")
	setupProbe := flag.Bool("setup-probe", false, "perform one sweep set-up in this fresh process and exit (used by the sweep workloads to time set-up)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *setupProbe {
		if err := sweepSetupOnce(*name, *workDir); err != nil {
			fatal(err)
		}
		return
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		workDir:  dir,
	}
	host := probeHost()
	out, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}

	specs := endToEnd
	values := out.e2e
	if cfg.trace {
		specs, values = perLayer, out.layers
	}
	res := result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			// Every layer is reported on every workload; one this
			// workload never enters reads zero.
			if !cfg.trace {
				res.Correct = false
				out.fail("end-to-end metric %s was not measured", s.name)
			}
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		res.Correct = false
		out.fail("no operation was attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	detail := map[string]any{"workload": *name, "seed": *seed, "trace": cfg.trace, "host": host, "problems": out.problems}
	for k, v := range out.detail {
		detail[k] = v
	}
	emit(map[string]any{"detail": detail})
	emit(res)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}
