package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"saga/internal/datasets"
	"saga/internal/graph"
	"saga/internal/rng"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/schedulers"
	"saga/internal/serialize"
	"saga/internal/serve"
	"saga/internal/sim"
)

// serve_mixed drives an in-process daemon (serve.New behind net/http on
// loopback) with NumCPU closed-loop clients posting /v1/schedule. The
// request plan is fixed by the seed: request k uses the k-th Table I
// scheduler in turn; four requests in five are hits on a hot set of one
// instance per Table II dataset (inserted during set-up), the rest are
// misses drawn in order from a pool larger than the daemon's 64-entry
// cache, so they are always evicted before they come round again.

const (
	typicalOf  = 15
	missPool   = 192
	missEvery  = 5 // one request in five is a miss
	planLength = 1 << 17
	serveSetup = 15 // set-ups per run; the last one serves the measurement
)

// servePlan is the generated input: instance bytes and the request
// sequence.
type servePlan struct {
	instances [][]byte // hot set first, then the miss pool
	hot       int
	reqs      []planned
}

type planned struct {
	sched int // index into schedulers.ExperimentalNames
	inst  int // index into servePlan.instances
	miss  bool
}

func makeServePlan(seed uint64) (*servePlan, error) {
	r := rng.New(seed)
	p := &servePlan{hot: len(datasets.TableII)}
	// Every instance is the median-size one of typicalOf draws from its
	// dataset, sized by tasks plus squared nodes (the link table dominates
	// an IoT body, which ranges from about 220 KB to 580 KB). The hot set
	// holds only four IoT instances, so single draws would let one seed's
	// luck swing every number the workload reports.
	typical := func(name string) ([]byte, error) {
		g, err := datasets.New(name)
		if err != nil {
			return nil, err
		}
		cands := make([]*graph.Instance, typicalOf)
		for i := range cands {
			cands[i] = g.Generate(r.Split())
		}
		size := func(inst *graph.Instance) int {
			return inst.Graph.NumTasks() + inst.Net.NumNodes()*inst.Net.NumNodes()
		}
		sort.SliceStable(cands, func(a, b int) bool { return size(cands[a]) < size(cands[b]) })
		return serialize.MarshalInstance(cands[typicalOf/2])
	}
	for k := 0; k < p.hot+missPool; k++ {
		raw, err := typical(datasets.TableII[k%len(datasets.TableII)])
		if err != nil {
			return nil, err
		}
		p.instances = append(p.instances, raw)
	}
	// The mix is exact in every stretch of the plan, so a second of
	// traffic costs about the same as any other: each block of five
	// requests holds one miss at a seeded position, and hits walk the hot
	// set in seeded permutations, each instance once per sixteen hits.
	nSched := len(schedulers.ExperimentalNames)
	nextMiss, missAt := 0, 0
	var hotOrder []int
	for k := 0; k < planLength; k++ {
		if k%missEvery == 0 {
			missAt = k + r.Intn(missEvery)
		}
		q := planned{sched: k % nSched}
		if k == missAt {
			q.miss, q.inst = true, p.hot+nextMiss%missPool
			nextMiss++
		} else {
			if len(hotOrder) == 0 {
				hotOrder = r.Perm(p.hot)
			}
			q.inst, hotOrder = hotOrder[0], hotOrder[1:]
		}
		p.reqs = append(p.reqs, q)
	}
	return p, nil
}

// daemon is one running in-process server.
type daemon struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: &http.Server{Handler: serve.New(serve.Options{})}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		// Serve returns http.ErrServerClosed once stop shuts it down; any
		// other failure shows up as failed requests.
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// stop drains the daemon, closing it outright if requests outlast the
// drain, and waits for its serving goroutine to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close()
	}
	<-d.done
}

// record is one completed request as a client saw it.
type record struct {
	k      int
	ns     int64
	end    time.Duration // completion, since the phase started
	status int
	sum    [32]byte
}

// serveRun is one measuring phase's traffic.
type serveRun struct {
	recs     []record
	wall     time.Duration
	clientNS int64 // client time outside requests (body build, hashing)
}

// drive runs nproc closed-loop clients for the given time, starting at
// plan position *next.
func drive(client *http.Client, d *daemon, p *servePlan, names []string, clients int, dur time.Duration, next *atomic.Int64) (*serveRun, error) {
	var (
		mu   sync.Mutex
		run  = &serveRun{}
		wg   sync.WaitGroup
		errs = make(chan error, clients)
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			var resp bytes.Buffer
			var recs []record
			var own int64
			for time.Now().Before(deadline) {
				t0 := time.Now()
				k := int(next.Add(1) - 1)
				q := p.reqs[k%planLength]
				body = requestBody(body, names[q.sched], p.instances[q.inst])
				t1 := time.Now()
				status, err := post(client, d.url+"/v1/schedule", body, &resp)
				t2 := time.Now()
				if err != nil {
					errs <- err
					return
				}
				recs = append(recs, record{k: k, ns: int64(t2.Sub(t1)), end: t2.Sub(start), status: status, sum: sha256.Sum256(resp.Bytes())})
				own += int64(t1.Sub(t0) + time.Since(t2))
			}
			mu.Lock()
			run.recs = append(run.recs, recs...)
			run.clientNS += own
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return run, nil
}

func post(client *http.Client, url string, body []byte, resp *bytes.Buffer) (int, error) {
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	resp.Reset()
	_, err = resp.ReadFrom(r.Body)
	return r.StatusCode, err
}

func metricsSnapshot(client *http.Client, d *daemon) (*serve.MetricsSnapshot, error) {
	c := &serve.Client{BaseURL: d.url, HTTPClient: client}
	return c.Metrics(context.Background())
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, detail: map[string]any{}}
	p, err := makeServePlan(cfg.seed)
	if err != nil {
		return nil, err
	}
	clients := cfg.workers
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	defer client.CloseIdleConnections()
	plain := schedulers.ExperimentalNames

	// Set-up: start the daemon and insert the hot set, several times;
	// the last daemon serves the measurement.
	var setups []float64
	var d *daemon
	for i := 0; i < serveSetup; i++ {
		if d != nil {
			d.stop()
			client.CloseIdleConnections()
		}
		runtime.GC() // every set-up starts from the same clean heap
		start := time.Now()
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		var resp bytes.Buffer
		for h := 0; h < p.hot; h++ {
			status, err := post(client, d.url+"/v1/schedule", requestBody(nil, plain[h%len(plain)], p.instances[h]), &resp)
			if err != nil || status != http.StatusOK {
				d.stop()
				return nil, fmt.Errorf("warm-up request %d: status %d: %v", h, status, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()

	var next atomic.Int64
	heap := startHeapSampler()
	stopCuts := make(chan struct{})
	cutsDone := make(chan struct{})
	go func() {
		defer close(cutsDone)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopCuts:
				return
			case <-t.C:
				heap.cut()
			}
		}
	}()
	m0, err := metricsSnapshot(client, d)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	run, err := drive(client, d, p, plain, clients, cfg.seconds, &next)
	rt := readRuntime().since(rt0)
	close(stopCuts)
	<-cutsDone
	heap.cut()
	heapPeak := heap.finish()
	if err != nil {
		return nil, err
	}
	m1, err := metricsSnapshot(client, d)
	if err != nil {
		return nil, err
	}

	expect := newExpectations(p)
	validity := map[string]int64{}
	var invalid int64
	// check verifies every response; the untraced phase's requests are
	// the operations the run reports as attempted and failed.
	check := func(run *serveRun, names []string, count bool) {
		for _, rec := range run.recs {
			q := p.reqs[rec.k%planLength]
			if count {
				out.attempted++
			}
			if rec.status != http.StatusOK {
				if count {
					out.failed++
				}
				out.fail("request %d answered %d", rec.k, rec.status)
				continue
			}
			e, err := expect.get(q, names[q.sched], validity)
			if err != nil {
				out.fail("request %d: direct call failed: %v", rec.k, err)
				continue
			}
			if e.sum != rec.sum {
				out.fail("request %d (%s on instance %d): response differs from the direct ScheduleInto + MarshalSchedule call",
					rec.k, names[q.sched], q.inst)
			}
			// A schedule failing Validate is a defect of the scheduler,
			// which the daemon serves faithfully: counted, not failed.
			if e.invalid && count {
				invalid++
			}
		}
	}
	check(run, plain, true)
	out.detail["validity"] = validity
	out.detail["invalid_responses"] = invalid

	var all, hits, misses []float64
	var ends []time.Duration
	for _, rec := range run.recs {
		ms := float64(rec.ns) / 1e6
		all = append(all, ms)
		ends = append(ends, rec.end)
		if p.reqs[rec.k%planLength].miss {
			misses = append(misses, ms)
		} else {
			hits = append(hits, ms)
		}
	}
	// Throughput and latency quantiles are medians over two-second
	// windows: the host's bursts of interference then move one window, not
	// the run, and at the rates seen on two vCPUs (600-900 req/s) each
	// window's p99 has at least ten samples beyond it.
	rate, qs := windowStats(ends, all, 2*time.Second, []float64{0.50, 0.99})
	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = rate
	out.e2e["p50_ms"] = qs[0]
	out.e2e["p99_ms"] = qs[1]
	out.e2e["heap_peak_mb"] = heapPeak

	planHits, planMisses := uint64(len(hits)), uint64(len(misses))
	gotHits, gotMisses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	// The digest covers the responses to the first plan positions, which
	// every run reaches.
	first := make([][32]byte, 64)
	for _, rec := range run.recs {
		if rec.k < len(first) {
			first[rec.k] = rec.sum
		}
	}
	digest := sha256.New()
	for _, sum := range first {
		digest.Write(sum[:])
	}
	out.detail["digest"] = hex.EncodeToString(digest.Sum(nil))
	out.detail["requests"] = len(run.recs)
	out.detail["planned_hits_misses"] = []uint64{planHits, planMisses}
	out.detail["daemon_hits_misses"] = []uint64{gotHits, gotMisses}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, %.1f req/s, hits %d/%d planned/daemon, misses %d/%d\n",
		len(run.recs), rate, planHits, gotHits, planMisses, gotMisses)

	if !cfg.trace {
		return out, nil
	}

	L := map[string]float64{}
	L["serve.hit_p50_ms"] = quantile(hits, 0.50)
	L["serve.hit_p99_ms"] = quantile(hits, 0.99)
	L["serve.miss_p50_ms"] = quantile(misses, 0.50)
	L["serve.miss_p99_ms"] = quantile(misses, 0.99)
	L["runtime.alloc_bytes_per_op"] = float64(rt.allocBytes) / float64(len(run.recs))
	L["runtime.gc_cycles"] = float64(rt.gcCycles)

	// Traced phase: the same traffic naming the timing wrappers, so the
	// daemon's scheduler calls are timed where it makes them.
	names := traced(plain)
	algs0 := snapshotAlgs()
	t0, err := metricsSnapshot(client, d)
	if err != nil {
		return nil, err
	}
	tr, err := drive(client, d, p, names, clients, cfg.seconds, &next)
	if err != nil {
		return nil, err
	}
	t1, err := metricsSnapshot(client, d)
	if err != nil {
		return nil, err
	}
	check(tr, names, false)
	per, calls, ns := snapshotAlgs().sub(algs0)
	perSec := 1 / tr.wall.Seconds()
	schedulerLayers(L, per, calls, ns, perSec)

	e0, e1 := t0.Endpoints["schedule"], t1.Endpoints["schedule"]
	n := float64(e1.Count - e0.Count)
	handlerMS := (e1.MeanMS*float64(e1.Count) - e0.MeanMS*float64(e0.Count)) / n
	var trLat int64
	for _, rec := range tr.recs {
		trLat += rec.ns
	}
	clientMS := float64(trLat) / 1e6 / float64(len(tr.recs))
	h, m := float64(t1.Cache.Hits-t0.Cache.Hits), float64(t1.Cache.Misses-t0.Cache.Misses)
	L["serve.cache.hit_ratio"] = h / (h + m)
	L["serve.cache.evictions"] = float64(t1.Cache.Evictions-t0.Cache.Evictions) * perSec
	L["serve.table_reuses"] = float64(t1.Cache.TableReuses-t0.Cache.TableReuses) * perSec
	L["serve.pool.fresh_scratches"] = float64(t1.Pool.FreshScratches-t0.Pool.FreshScratches) * perSec
	L["serve.handler_ms"] = handlerMS
	L["serve.transport_ms"] = clientMS - handlerMS
	L["tracing.overhead_frac"] = rate/(float64(len(tr.recs))/tr.wall.Seconds()) - 1
	// Client time is either inside a request or in the client's own
	// measured work; what is left is loop overhead nobody timed.
	L["tracing.accounted_frac"] = float64(trLat+tr.clientNS) / 1e9 / (float64(clients) * tr.wall.Seconds())
	for k, v := range validity {
		L[k] = float64(v)
	}

	var bodies []stageBody
	for i, raw := range p.instances {
		name := plain[i%len(plain)]
		bodies = append(bodies, stageBody{scheduler: name, instance: raw, body: requestBody(nil, name, raw)})
	}
	if err := replayStages(L, bodies); err != nil {
		return nil, err
	}
	out.layers = L
	out.detail["traced_requests"] = len(tr.recs)
	out.detail["handler_vs_client_ms"] = []float64{handlerMS, clientMS}
	return out, nil
}

// expected is the direct library answer to one (instance, scheduler)
// request: the hash of the response body the daemon must send.
type expected struct {
	sum     [32]byte
	invalid bool
}

// direct is one schedule computed by a direct library call.
type direct struct {
	makespan float64
	raw      []byte
	invalid  bool
}

// expectations computes direct answers lazily: one ScheduleInto per
// distinct (instance, algorithm) pair, each run through schedule.Validate
// and sim.Execute (counted once per pair), and one response hash per
// requested name (a traced name differs only in the echoed scheduler).
type expectations struct {
	p       *servePlan
	directs map[[2]any]*direct
	memo    map[[2]any]*expected
}

func newExpectations(p *servePlan) *expectations {
	return &expectations{p: p, directs: map[[2]any]*direct{}, memo: map[[2]any]*expected{}}
}

func (x *expectations) get(q planned, name string, validity map[string]int64) (*expected, error) {
	key := [2]any{q.inst, name}
	if e, ok := x.memo[key]; ok {
		return e, nil
	}
	alg := plainName(name)
	d, err := x.direct(q.inst, alg, validity)
	if err != nil {
		return nil, err
	}
	// The daemon answers through httpx.WriteJSON: json.Encoder framing
	// plus its trailing newline.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.ScheduleResponse{Scheduler: name, Makespan: d.makespan, Schedule: d.raw}); err != nil {
		return nil, err
	}
	e := &expected{sum: sha256.Sum256(buf.Bytes()), invalid: d.invalid}
	x.memo[key] = e
	return e, nil
}

func (x *expectations) direct(i int, alg string, validity map[string]int64) (*direct, error) {
	key := [2]any{i, alg}
	if d, ok := x.directs[key]; ok {
		return d, nil
	}
	inst, err := serialize.UnmarshalInstance(x.p.instances[i])
	if err != nil {
		return nil, err
	}
	s, err := scheduler.New(alg)
	if err != nil {
		return nil, err
	}
	sch := &schedule.Schedule{}
	if err := scheduler.ScheduleInto(s, inst, scheduler.NewScratch(), sch); err != nil {
		return nil, err
	}
	raw, err := serialize.MarshalSchedule(sch)
	if err != nil {
		return nil, err
	}
	d := &direct{makespan: sch.Makespan(), raw: raw}
	if schedule.Validate(inst, sch) != nil {
		d.invalid = true
		validity["validity."+alg+".validate_failures"]++
		validity["validity.validate_failures"]++
	}
	if _, err := sim.Execute(inst, sch); err != nil {
		validity["validity."+alg+".sim_rejects"]++
		validity["validity.sim_rejects"]++
	}
	x.directs[key] = d
	return d, nil
}
