package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/graph"
	"saga/internal/runner"
	"saga/internal/schedule"
	"saga/internal/scheduler"
)

// The traced run measures layers from outside the program: it swaps in
// timing wrappers at the public seams the drivers already expose — the
// scheduler registry, the runner.Checkpoint store, and the
// runner.Options.Progress callback — and leaves the program's own code
// untouched.

// tracePrefix names the timing wrapper registered for every scheduler.
// The sweep drivers re-instantiate schedulers by name for every cell and
// scheduler.Register panics on duplicates, so each wrapper needs a
// registered name of its own.
const tracePrefix = "trace."

// algStats accumulates one algorithm's wrapped calls.
type algStats struct {
	calls atomic.Int64
	ns    atomic.Int64
}

var (
	algTotals = map[string]*algStats{}
	// activeSweep, when set, is told about every wrapper instantiation:
	// the first one a worker makes for a cell marks the cell's start. It
	// is package state because the registry's factories take no
	// arguments.
	activeSweep atomic.Pointer[sweepTracer]
)

func init() {
	for _, name := range scheduler.Names() {
		st := &algStats{}
		algTotals[name] = st
		scheduler.Register(tracePrefix+name, func() scheduler.Scheduler {
			inner, err := scheduler.New(name)
			if err != nil {
				panic(err)
			}
			if t := activeSweep.Load(); t != nil {
				t.cellStart()
			}
			return &timedScheduler{inner: inner, name: tracePrefix + name, st: st}
		})
	}
}

// traced maps a roster to its wrapper names.
func traced(roster []string) []string {
	out := make([]string, len(roster))
	for i, n := range roster {
		out[i] = tracePrefix + n
	}
	return out
}

// plainName strips the wrapper prefix.
func plainName(n string) string { return strings.TrimPrefix(n, tracePrefix) }

// timedScheduler times every call into the wrapped algorithm. It
// forwards Requirements (the PISA perturbation space depends on it) and
// takes the scratch path exactly as scheduler.ScheduleInto would for
// the bare algorithm, so traced results equal untraced ones.
type timedScheduler struct {
	inner scheduler.Scheduler
	name  string
	st    *algStats
}

func (t *timedScheduler) Name() string { return t.name }

func (t *timedScheduler) Requirements() scheduler.Requirements {
	return scheduler.RequirementsOf(t.inner)
}

func (t *timedScheduler) Schedule(inst *graph.Instance) (*schedule.Schedule, error) {
	start := time.Now()
	s, err := t.inner.Schedule(inst)
	t.st.ns.Add(int64(time.Since(start)))
	t.st.calls.Add(1)
	return s, err
}

func (t *timedScheduler) ScheduleScratch(inst *graph.Instance, scr *scheduler.Scratch, out *schedule.Schedule) error {
	start := time.Now()
	err := scheduler.ScheduleInto(t.inner, inst, scr, out)
	t.st.ns.Add(int64(time.Since(start)))
	t.st.calls.Add(1)
	return err
}

// algSnapshot is the per-algorithm call totals at one instant.
type algSnapshot map[string][2]int64 // name -> {calls, ns}

func snapshotAlgs() algSnapshot {
	s := algSnapshot{}
	for name, st := range algTotals {
		s[name] = [2]int64{st.calls.Load(), st.ns.Load()}
	}
	return s
}

// sub returns the per-algorithm change from b to a, and its totals.
func (a algSnapshot) sub(b algSnapshot) (per algSnapshot, calls, ns int64) {
	per = algSnapshot{}
	for name, v := range a {
		d := [2]int64{v[0] - b[name][0], v[1] - b[name][1]}
		if d[0] != 0 {
			per[name] = d
		}
		calls += d[0]
		ns += d[1]
	}
	return per, calls, ns
}

// timedStore wraps a checkpoint store, timing and sizing every call.
type timedStore struct {
	inner runner.Checkpoint
	n     atomic.Int64
	ns    atomic.Int64
	bytes atomic.Int64
}

func (s *timedStore) Load() (map[int]json.RawMessage, error) {
	start := time.Now()
	defer func() { s.ns.Add(int64(time.Since(start))) }()
	return s.inner.Load()
}

func (s *timedStore) Store(index int, cell json.RawMessage) error {
	start := time.Now()
	err := s.inner.Store(index, cell)
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
	s.bytes.Add(int64(len(cell)))
	return err
}

func (s *timedStore) Flush() error {
	start := time.Now()
	defer func() { s.ns.Add(int64(time.Since(start))) }()
	return s.inner.Flush()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). The tracer calls it only at cell
// boundaries, never per scheduler call.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// sweepTracer reconstructs every worker's timeline from the cell
// boundaries the runner exposes: a worker's first wrapper instantiation
// for a cell opens it, the runner's Progress call on the same goroutine
// closes it. Each runner.Map call is a phase, opened by the baseline
// Progress call (done == 0) and closed by the call reporting done ==
// total. Scheduler and store totals are snapshotted at phase edges, so
// their time splits by phase kind without any per-call bookkeeping.
type sweepTracer struct {
	workers int
	store   *timedStore
	// pisaTotal is the cell count of a PISA phase; every other phase is
	// a benchmarking phase.
	pisaTotal int

	mu     sync.Mutex
	open   map[uint64]time.Time
	last   map[uint64]time.Time
	start  time.Time
	algs   algSnapshot
	stores int64 // store ns at phase start
	busy   time.Duration
	total  int

	// Accumulated over every phase.
	pisaCell, benchCell   time.Duration // cell spans
	pisaSched, benchSched int64         // scheduler ns inside cells
	pisaCalls             int64
	pisaStore, benchStore int64 // store ns inside phases
	phaseWall, tail       time.Duration
}

func newSweepTracer(workers, pisaTotal int) *sweepTracer {
	return &sweepTracer{workers: workers, pisaTotal: pisaTotal, store: &timedStore{},
		open: map[uint64]time.Time{}, last: map[uint64]time.Time{}}
}

func (t *sweepTracer) cellStart() {
	now := time.Now()
	g := goid()
	t.mu.Lock()
	if _, ok := t.open[g]; !ok {
		t.open[g] = now
	}
	t.mu.Unlock()
}

// progress is the runner.Options.Progress hook.
func (t *sweepTracer) progress(done, total int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if done == 0 {
		t.start, t.busy, t.total = now, 0, total
		t.algs = snapshotAlgs()
		t.stores = t.store.ns.Load()
		clear(t.open)
		clear(t.last)
		return
	}
	g := goid()
	if s, ok := t.open[g]; ok {
		t.busy += now.Sub(s)
		delete(t.open, g)
	}
	t.last[g] = now
	if done == total {
		t.endPhase(now, total)
	}
}

// abortPhase closes a phase the runner abandoned after a failed cell.
func (t *sweepTracer) abortPhase() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endPhase(time.Now(), t.total)
}

// endPhase folds a finished phase into the totals. Every worker's last
// completion is in t.last; the tail runs from the earliest of them.
func (t *sweepTracer) endPhase(now time.Time, total int) {
	wall := now.Sub(t.start)
	earliest := now
	for _, e := range t.last {
		if e.Before(earliest) {
			earliest = e
		}
	}
	if len(t.last) < min(t.workers, total) {
		earliest = t.start // a worker never got a cell
	}
	t.tail += now.Sub(earliest)
	t.phaseWall += wall
	_, calls, ns := snapshotAlgs().sub(t.algs)
	storeNS := t.store.ns.Load() - t.stores
	if total == t.pisaTotal {
		t.pisaCell += t.busy
		t.pisaSched += ns
		t.pisaCalls += calls
		t.pisaStore += storeNS
	} else {
		t.benchCell += t.busy
		t.benchSched += ns
		t.benchStore += storeNS
	}
}
