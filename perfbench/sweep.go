package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"saga/internal/experiments"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
	"saga/internal/sim"
)

// Both sweep workloads run the experiment drivers exactly as
// `figures -checkpoint` does: a fingerprinted checkpoint store per
// block, Workers = NumCPU, the store removed once the block completes.
// One round runs every block of one configuration; rounds cycle through
// a few seed-derived configurations until the measuring time is spent,
// and every configuration runs at least twice so its output digest can
// be compared with itself.

// paperIters and paperRestarts are the Section VI annealing budget.
const (
	paperIters    = 1000
	paperRestarts = 5
)

// block is one checkpointed sweep invocation.
type block struct {
	sweep  string // experiments.NewSweep name
	params experiments.SweepParams
	store  string // store file name; ".gz" selects the stream format
	run    func(scheds []scheduler.Scheduler, ro runner.Options) (*gridResult, error)
}

// gridResult is the part of a driver's result the checks read, or the
// error that aborted the sweep.
type gridResult struct {
	names  []string
	ratios [][]float64
	insts  [][]*graph.Instance
	bench  []float64
	abort  string
	// nonFinite marks an abort caused by the store refusing a
	// non-finite ratio.
	nonFinite bool
}

// sweepWorkload describes one sweep workload: its roster and the blocks
// of configuration c. Each round runs a new configuration, so a run
// averages over as many seed-derived inputs as fit in its time.
type sweepWorkload struct {
	roster []string
	config func(c int) []block
	// pisaCells is the cell count of one PISA phase (the tracer tells
	// PISA phases from benchmarking phases by it).
	pisaCells int
}

func runPISAGrid(cfg runConfig) (*outcome, error) { return pisaGridWorkload(cfg.seed).run(cfg) }

func pisaGridWorkload(seed uint64) sweepWorkload {
	w := sweepWorkload{roster: schedulers.ExperimentalNames}
	n := len(w.roster)
	w.pisaCells = n * (n - 1)
	w.config = func(c int) []block {
		p := experiments.SweepParams{Iters: paperIters, Restarts: paperRestarts, Seed: configSeed(seed, c)}
		return []block{{
			sweep:  "fig4",
			params: p,
			store:  "fig4.ckpt.gz",
			run: func(scheds []scheduler.Scheduler, ro runner.Options) (*gridResult, error) {
				res, err := experiments.PairwisePISARun(scheds, experiments.PairwiseOptions{Anneal: p.Anneal()}, ro)
				if err != nil {
					return nil, err
				}
				return &gridResult{names: res.Schedulers, ratios: res.Ratios, insts: res.Instances}, nil
			},
		}}
	}
	return w
}

// appWorkflows are the Section VII blocks of appspecific_sweep: the
// smallest, a mid-size and the largest recipe, all at CCR 1.
var appWorkflows = []string{"srasearch", "montage", "epigenomics"}

// The Section VII blocks run a short annealing budget. WBA's cost grows
// with tasks x dependencies x nodes, and each chain draws one workflow of
// 13 to 61 tasks, so the cost of a cell is heavy-tailed: at the paper's
// budget one round takes about 20 s on two vCPUs and a run sees a few
// dozen draws, too few for its throughput to settle. Short chains let a
// run average over thousands of draws.
const (
	appCCR        = 1.0
	appBenchInsts = 20
	appIters      = 50
	appRestarts   = 1
)

func runAppSpecific(cfg runConfig) (*outcome, error) { return appSpecificWorkload(cfg.seed).run(cfg) }

func appSpecificWorkload(seed uint64) sweepWorkload {
	w := sweepWorkload{roster: schedulers.AppSpecificNames}
	n := len(w.roster)
	w.pisaCells = n * (n - 1)
	w.config = func(c int) []block {
		var blocks []block
		for _, wf := range appWorkflows {
			p := experiments.SweepParams{N: appBenchInsts, Iters: appIters, Restarts: appRestarts,
				Seed: configSeed(seed, c), Workflow: wf, CCR: appCCR}
			blocks = append(blocks, block{
				sweep:  "appspecific",
				params: p,
				store:  "appspecific-" + wf + ".ckpt.json",
				run: func(scheds []scheduler.Scheduler, ro runner.Options) (*gridResult, error) {
					res, err := experiments.AppSpecificRun(scheds, experiments.AppSpecificOptions{
						Workflow: p.Workflow, CCR: p.CCR, BenchmarkInstances: p.N, Anneal: p.Anneal(),
					}, ro)
					if err != nil {
						return nil, err
					}
					return &gridResult{names: res.Schedulers, ratios: res.Ratios, insts: res.Instances, bench: res.Benchmark}, nil
				},
			})
		}
		return blocks
	}
	return w
}

// configSeed derives the annealing root seed of configuration c from the
// workload seed.
func configSeed(seed uint64, c int) uint64 {
	return rng.New(seed+uint64(c)*0x9E3779B97F4A7C15).Uint64()%1_000_000 + 1
}

// cellClock turns the runner's Progress calls into per-cell latencies:
// each call after a phase's baseline closes the cell its goroutine was
// running, which started when the same goroutine closed its previous
// cell (or at the phase start).
type cellClock struct {
	mu    sync.Mutex
	start time.Time
	total int // cells in the current runner phase
	last  map[uint64]time.Time
	ms    []float64
}

func (c *cellClock) progress(done, total int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if done == 0 {
		c.start, c.total = now, total
		c.last = map[uint64]time.Time{}
		return
	}
	g := goid()
	prev, ok := c.last[g]
	if !ok {
		prev = c.start
	}
	c.ms = append(c.ms, float64(now.Sub(prev).Nanoseconds())/1e6)
	c.last[g] = now
}

func (c *cellClock) phaseTotal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// verdict is the checked outcome of one configuration.
type verdict struct {
	digest    string
	failed    int64 // cells that errored, or aborted a sweep for any reason but a non-finite ratio
	nonFinite int64 // sweeps aborted by a non-finite ratio
	invalid   int64 // cells with a recomputed schedule failing Validate
	cells     int64 // cells recomputed
	validate  map[string]int64
	sim       map[string]int64
	aborts    []string
}

// phaseStats is what one measuring phase (untraced or traced) yields.
type phaseStats struct {
	rounds    int
	cells     int64
	failed    int64
	sweepTime time.Duration
	// roundRates holds each round's cells per second of sweep time.
	roundRates []float64
	// results holds the first rounds' results, up to one that did not
	// abort, for the stage replays.
	results    []*gridResult
	replayable bool
}

// run executes the untraced phase (and, with --trace 1, the traced
// phase) and assembles the outcome.
func (w sweepWorkload) run(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	verdicts := map[int]*verdict{}

	setup, err := probeSetup(cfg)
	if err != nil {
		return nil, err
	}

	clock := &cellClock{}
	heap := startHeapSampler()
	rt0 := readRuntime()
	plain, err := w.phase(cfg, false, clock, heap, nil, verdicts, out)
	rt := readRuntime().since(rt0)
	heapPeak := heap.finish()
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = plain.cells, plain.failed

	// The rate is a median over rounds, so a burst of interference from
	// the host, or one configuration's heavy-tailed cells, moves one round
	// rather than the run.
	rate := median(plain.roundRates)
	lat := clock.ms
	out.e2e["setup_s"] = setup
	out.e2e["ops_per_s"] = rate
	out.e2e["p50_ms"] = quantile(lat, 0.50)
	out.e2e["p99_ms"] = quantile(lat, 0.99)
	out.e2e["heap_peak_mb"] = heapPeak

	validity := map[string]int64{}
	var aborts []string
	var invalid, verified int64
	configs := len(verdicts)
	for c := 0; c < configs; c++ {
		v := verdicts[c]
		aborts = append(aborts, v.aborts...)
		invalid += v.invalid
		verified += v.cells
		validity["validity.nonfinite_aborts"] += v.nonFinite
		for alg, k := range v.validate {
			validity["validity."+alg+".validate_failures"] += k
			validity["validity.validate_failures"] += k
		}
		for alg, k := range v.sim {
			validity["validity."+alg+".sim_rejects"] += k
			validity["validity.sim_rejects"] += k
		}
	}
	// Configuration 0 runs in every run, so its digest is the run's.
	out.detail["digest"] = verdicts[0].digest
	out.detail["rounds"] = plain.rounds
	out.detail["round_rates"] = plain.roundRates
	out.detail["configs"] = configs
	out.detail["latency_samples"] = len(lat)
	out.detail["validity"] = validity
	out.detail["invalid_cells"] = map[string]int64{"invalid": invalid, "verified": verified}
	out.detail["aborted_sweeps"] = aborts
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, %d cells, %.1f cells/s, %d failed, digest %s\n",
		plain.rounds, plain.cells, rate, plain.failed, out.detail["digest"])
	fmt.Fprintf(os.Stderr, "perfbench: known defects: %d of %d verified cells have a schedule failing schedule.Validate, %d sweeps aborted by a non-finite ratio\n",
		invalid, verified, validity["validity.nonfinite_aborts"])

	if !cfg.trace {
		return out, nil
	}
	tracer := newSweepTracer(cfg.workers, w.pisaCells)
	algs0 := snapshotAlgs()
	activeSweep.Store(tracer)
	tr, err := w.phase(cfg, true, &cellClock{}, nil, tracer, verdicts, out)
	activeSweep.Store(nil)
	if err != nil {
		return nil, err
	}
	per, calls, ns := snapshotAlgs().sub(algs0)
	L := map[string]float64{}
	for k, v := range validity {
		L[k] = float64(v) / float64(configs) // per verified configuration
	}
	perRound := 1 / float64(tr.rounds)
	schedulerLayers(L, per, calls, ns, perRound)
	t := tracer
	storeNS := float64(t.store.ns.Load())
	wall := tr.sweepTime.Seconds()
	W := float64(cfg.workers)
	serial := wall - t.phaseWall.Seconds()
	inCellStore := float64(t.pisaStore+t.benchStore) / 1e9
	coreSelf := t.pisaCell.Seconds() - float64(t.pisaSched+t.pisaStore)/1e9
	expSelf := t.benchCell.Seconds() - float64(t.benchSched+t.benchStore)/1e9 +
		serial - (storeNS/1e9 - inCellStore)
	idle := W*t.phaseWall.Seconds() - (t.pisaCell + t.benchCell).Seconds() + (W-1)*serial
	L["core.iters"] = float64(t.pisaCalls/2) * perRound
	L["core.self_s"] = coreSelf * perRound
	if t.pisaCalls > 0 {
		L["core.self_us_per_iter"] = coreSelf / float64(t.pisaCalls/2) * 1e6
	}
	L["experiments.self_s"] = expSelf * perRound
	L["serialize.stores"] = float64(t.store.n.Load()) * perRound
	L["serialize.store_s"] = storeNS / 1e9 * perRound
	L["serialize.store_bytes"] = float64(t.store.bytes.Load()) * perRound
	L["runner.tail_s"] = t.tail.Seconds() * perRound
	L["runner.idle_frac"] = idle / (W * wall)
	L["runtime.alloc_bytes_per_op"] = float64(rt.allocBytes) / float64(plain.cells)
	L["runtime.gc_cycles"] = float64(rt.gcCycles)
	trRate := median(tr.roundRates)
	L["tracing.overhead_frac"] = rate/trRate - 1
	selfSum := float64(ns)/1e9 + storeNS/1e9 + max(coreSelf, 0) + max(expSelf, 0) + max(idle, 0)
	L["tracing.accounted_frac"] = selfSum / (W * wall)

	if err := replayStages(L, stageBodiesFromGrids(plain.results)); err != nil {
		return nil, err
	}
	out.layers = L
	out.detail["traced_rounds"] = tr.rounds
	out.detail["self_worker_s"] = map[string]float64{
		"schedulers": float64(ns) / 1e9, "serialize": storeNS / 1e9, "core": coreSelf,
		"experiments": expSelf, "runner_idle": idle, "wall_x_workers": W * wall,
	}
	return out, nil
}

// schedulerLayers fills the schedulers.* metrics from per-algorithm call
// deltas, scaling totals by norm (per round or per second).
func schedulerLayers(L map[string]float64, per algSnapshot, calls, ns int64, norm float64) {
	L["schedulers.calls"] = float64(calls) * norm
	L["schedulers.busy_s"] = float64(ns) / 1e9 * norm
	if calls > 0 {
		L["schedulers.us_per_call"] = float64(ns) / float64(calls) / 1e3
	}
	for alg, v := range per {
		L["schedulers."+alg+".calls"] = float64(v[0]) * norm
		L["schedulers."+alg+".busy_s"] = float64(v[1]) / 1e9 * norm
		if v[0] > 0 {
			L["schedulers."+alg+".us_per_call"] = float64(v[1]) / float64(v[0]) / 1e3
		}
	}
}

// phase runs rounds until the measuring time is spent and every
// configuration has run twice. Untraced phases verify each
// configuration's first round in full; every later round (and every
// traced round) must reproduce that round's digest.
func (w sweepWorkload) phase(cfg runConfig, trace bool, clock *cellClock, heap *heapSampler,
	tracer *sweepTracer, verdicts map[int]*verdict, out *outcome) (*phaseStats, error) {
	roster := w.roster
	if trace {
		roster = traced(roster)
	}
	hook := clock.progress
	if tracer != nil {
		hook = func(done, total int) {
			clock.progress(done, total)
			tracer.progress(done, total)
		}
	}
	ps := &phaseStats{}
	begin := time.Now()
	// Rounds run configurations 0, 1, 2, ... until the time is spent; an
	// untraced phase then runs configuration 0 once more, whose digest
	// must repeat.
	repeat := false
	for round := 0; ; round++ {
		c := round
		if round > 0 && time.Since(begin) >= cfg.seconds {
			if trace || repeat {
				break
			}
			c, repeat = 0, true
		}
		var results []*gridResult
		var cellErrs int64
		var roundCells int
		var roundTime time.Duration
		for bi, b := range w.config(c) {
			scheds, ck, cells, err := w.setup(cfg, b, roster, fmt.Sprintf("r%d-b%d", round, bi))
			if err != nil {
				return nil, err
			}
			var store runner.Checkpoint = ck
			if tracer != nil {
				tracer.store.inner = ck
				store = tracer.store
			}
			var mu sync.Mutex
			ro := runner.Options{
				Workers:    cfg.workers,
				Checkpoint: store,
				Progress:   hook,
				// A failing cell is counted, never allowed to abort or
				// vanish from the sweep.
				OnCellError: func(k int, err error) {
					mu.Lock()
					cellErrs++
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "perfbench: %s cell %d failed: %v\n", b.sweep, k, err)
				},
			}
			start := time.Now()
			res, err := b.run(scheds, ro)
			if err != nil {
				// A cell that fails outside OnCellError's reach (its
				// result cannot be stored) aborts the whole sweep, as it
				// would a `figures -checkpoint` run. The block counts as
				// the cells up to and including the failing one, and its
				// digest is the error itself. The failing cell is a failed
				// operation unless it is the known non-finite-ratio defect
				// (see nonFiniteRatio). The error's index counts within the
				// failing runner phase, so a PISA phase adds the
				// benchmarking cells before it.
				var ce *runner.CellError
				if !errors.As(err, &ce) {
					return nil, fmt.Errorf("%s round %d: %w", b.sweep, round, err)
				}
				if tracer != nil {
					tracer.abortPhase()
				}
				res = &gridResult{abort: err.Error(), nonFinite: nonFiniteRatio(err)}
				cells = ce.Index + 1
				if clock.phaseTotal() == w.pisaCells {
					cells += b.params.N
				}
			}
			rmStart := time.Now()
			if err := ck.Remove(); err != nil {
				return nil, err
			}
			if tracer != nil {
				tracer.store.ns.Add(int64(time.Since(rmStart)))
			}
			roundTime += time.Since(start)
			roundCells += cells
			results = append(results, res)
		}
		ps.sweepTime += roundTime
		ps.cells += int64(roundCells)
		ps.roundRates = append(ps.roundRates, float64(roundCells)/roundTime.Seconds())
		ps.rounds++
		if heap != nil {
			heap.cut()
		}
		digest := digestResults(results)
		v, seen := verdicts[c]
		switch {
		case !seen:
			v = verifyResults(results, out)
			v.digest = digest
			v.failed += cellErrs
			verdicts[c] = v
			if !trace && !ps.replayable {
				ps.results = append(ps.results, results...)
				for _, r := range results {
					ps.replayable = ps.replayable || r.abort == ""
				}
			}
		case v.digest != digest:
			out.fail("configuration %d: round %d (traced=%v) digest %s differs from the first round's %s",
				c, round, trace, digest, v.digest)
		}
		ps.failed += v.failed
		if repeat {
			break
		}
	}
	return ps, nil
}

// setup performs the program's own set-up for one block, exactly as
// `figures -checkpoint` does before its sweep starts: resolve the sweep
// identity, instantiate the roster, bind and load the store.
// It also returns the sweep's cell count.
func (w sweepWorkload) setup(cfg runConfig, b block, roster []string, tag string) ([]scheduler.Scheduler, *serialize.Checkpoint, int, error) {
	sw, err := experiments.NewSweep(b.sweep, b.params)
	if err != nil {
		return nil, nil, 0, err
	}
	scheds := make([]scheduler.Scheduler, len(roster))
	for i, n := range roster {
		if scheds[i], err = scheduler.New(n); err != nil {
			return nil, nil, 0, err
		}
	}
	ck := serialize.NewCheckpoint(filepath.Join(cfg.workDir, tag+"-"+b.store))
	ck.SetFingerprint(sw.Fingerprint)
	if _, err := ck.Load(); err != nil {
		return nil, nil, 0, err
	}
	return scheds, ck, sw.Cells, nil
}

// digestResults hashes every cell's ratio bits and adversarial instance
// bytes (plus benchmarking rows) — scheduler names are left out, so a
// traced round hashes equal to an untraced one exactly when every cell
// is equal.
func digestResults(results []*gridResult) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range results {
		h.Write([]byte(r.abort))
		for i := range r.ratios {
			for j, ratio := range r.ratios[i] {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ratio))
				h.Write(buf[:])
				if inst := r.insts[i][j]; inst != nil {
					raw, err := serialize.MarshalInstance(inst)
					if err != nil {
						raw = []byte(err.Error())
					}
					h.Write(raw)
				}
			}
		}
		for _, v := range r.bench {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyResults recomputes every PISA cell: freshly instantiated target
// and base schedulers run on the returned worst-case instance, their
// makespan ratio must equal the cell's exactly, and both schedules go
// through schedule.Validate and sim.Execute. Validate failures and
// sim.Execute rejections are counted per algorithm, and a cell with a
// Validate failure is counted as invalid. They are defects of the
// schedulers under comparison, which the sweep reproduces faithfully, so
// they do not make the cell a failed operation; an aborted sweep does.
// Nothing is skipped, filtered or re-run.
func verifyResults(results []*gridResult, out *outcome) *verdict {
	v := &verdict{validate: map[string]int64{}, sim: map[string]int64{}}
	for _, r := range results {
		if r.abort != "" {
			if r.nonFinite {
				v.nonFinite++
			} else {
				v.failed++
			}
			v.aborts = append(v.aborts, r.abort)
		}
		for i := range r.ratios {
			for j := range r.ratios[i] {
				if i == j {
					continue
				}
				inst := r.insts[i][j]
				if inst == nil {
					continue // an errored cell, counted by the caller
				}
				base, target := plainName(r.names[i]), plainName(r.names[j])
				st, errT := fresh(target, inst)
				sb, errB := fresh(base, inst)
				if errT != nil || errB != nil {
					out.fail("cell (%s vs %s): recompute failed: %v %v", target, base, errT, errB)
					continue
				}
				if got := schedule.MakespanRatio(st, sb); got != r.ratios[i][j] {
					out.fail("cell (%s vs %s): ratio %v, recomputed %v", target, base, r.ratios[i][j], got)
				}
				v.cells++
				bad := false
				for _, p := range []struct {
					alg string
					s   *schedule.Schedule
				}{{target, st}, {base, sb}} {
					if schedule.Validate(inst, p.s) != nil {
						v.validate[p.alg]++
						bad = true
					}
					if _, err := sim.Execute(inst, p.s); err != nil {
						v.sim[p.alg]++
					}
				}
				if bad {
					v.invalid++
				}
			}
		}
	}
	return v
}

// nonFiniteRatio reports whether a sweep aborted because its checkpoint
// store refused to encode a non-finite ratio: a base schedule of
// makespan 0 gives a cell a ratio of +Inf (or NaN if both are 0), which
// encoding/json rejects. It is a defect of the library (README, known
// defects), counted in validity.nonfinite_aborts.
func nonFiniteRatio(err error) bool {
	var uv *json.UnsupportedValueError
	return errors.As(err, &uv) && (uv.Str == "+Inf" || uv.Str == "-Inf" || uv.Str == "NaN")
}

// fresh schedules inst with a newly instantiated registry scheduler.
func fresh(name string, inst *graph.Instance) (*schedule.Schedule, error) {
	s, err := scheduler.New(name)
	if err != nil {
		return nil, err
	}
	return s.Schedule(inst)
}
