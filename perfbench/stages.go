package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"saga/internal/graph"
	"saga/internal/httpx"
	"saga/internal/schedule"
	"saga/internal/scheduler"
	"saga/internal/serialize"
	"saga/internal/serve"
)

// stageNames are the request-path stages the stage replay times, in
// pipeline order: read the body, decode the instance, build the cost
// tables, schedule, encode the schedule.
var stageNames = []string{
	"httpx.read_us",
	"serialize.decode_us",
	"graph.tables_build_us",
	"scheduler.schedule_us",
	"serialize.encode_us",
}

// stageBody is one /v1/schedule request body to replay.
type stageBody struct {
	scheduler string
	instance  []byte
	body      []byte
}

// requestBody builds the /v1/schedule body for an instance, byte for
// byte as the serve_mixed clients send it.
func requestBody(dst []byte, sched string, instance []byte) []byte {
	dst = append(dst[:0], `{"scheduler":"`...)
	dst = append(dst, sched...)
	dst = append(dst, `","instance":`...)
	dst = append(dst, instance...)
	return append(dst, '}')
}

// stageBodiesFromGrids turns every PISA cell of the given results into
// a request body for its analyzed (column) scheduler.
func stageBodiesFromGrids(results []*gridResult) []stageBody {
	var out []stageBody
	for _, r := range results {
		for i := range r.insts {
			for j, inst := range r.insts[i] {
				if inst == nil {
					continue
				}
				raw, err := serialize.MarshalInstance(inst)
				if err != nil {
					continue
				}
				name := plainName(r.names[j])
				out = append(out, stageBody{scheduler: name, instance: raw, body: requestBody(nil, name, raw)})
			}
		}
	}
	return out
}

// replayStages times each stage of the request path on every body, calling
// the same public functions the daemon does, and reports the mean of the
// per-body medians for the small bodies and for the large ones (the
// largest quarter by size). With no bodies (every sweep aborted) the
// stage metrics stay unset.
func replayStages(L map[string]float64, bodies []stageBody) error {
	if len(bodies) == 0 {
		return nil
	}
	sort.SliceStable(bodies, func(a, b int) bool { return len(bodies[a].body) < len(bodies[b].body) })
	cut := len(bodies) - max(1, len(bodies)/4)
	sums := map[string][2]float64{}
	scr := scheduler.NewScratch()
	var tb graph.Tables
	out := &schedule.Schedule{}
	for bi, b := range bodies {
		class := ".small"
		if bi >= cut {
			class = ".large"
		}
		s, err := scheduler.New(b.scheduler)
		if err != nil {
			return err
		}
		inst, err := serialize.UnmarshalInstance(b.instance)
		if err != nil {
			return err
		}
		scr.Prepare(inst)
		var stageErr error
		steps := []func(){
			func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(b.body))
				var sr serve.ScheduleRequest
				if !httpx.ReadJSON(httptest.NewRecorder(), req, &sr) {
					stageErr = fmt.Errorf("stage replay: body of %d bytes refused", len(b.body))
				}
			},
			func() {
				if _, err := serialize.UnmarshalInstance(b.instance); err != nil {
					stageErr = err
				}
			},
			func() { tb.Build(inst) },
			func() {
				if err := scheduler.ScheduleInto(s, inst, scr, out); err != nil {
					stageErr = err
				}
			},
			func() {
				if _, err := serialize.MarshalSchedule(out); err != nil {
					stageErr = err
				}
			},
		}
		for si, step := range steps {
			us := timeStep(step)
			if stageErr != nil {
				return stageErr
			}
			k := stageNames[si] + class
			sums[k] = [2]float64{sums[k][0] + us, sums[k][1] + 1}
		}
	}
	for k, v := range sums {
		L[k] = v[0] / v[1]
	}
	return nil
}

// timeStep returns the median duration in microseconds of a few calls
// of fn: as many as fit in about a millisecond, at least three and at
// most nine.
func timeStep(fn func()) float64 {
	var samples []float64
	begin := time.Now()
	for len(samples) < 9 && (len(samples) < 3 || time.Since(begin) < time.Millisecond) {
		start := time.Now()
		fn()
		samples = append(samples, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(samples)
}
