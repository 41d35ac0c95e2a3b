// Package serialize saves and loads problem instances and schedules as
// JSON — the role SAGA's dataset save/load tools play (Section IV-B), so
// adversarial instances discovered by PISA can be published and re-run.
//
// Infinite link strengths (shared-filesystem networks, cloud-cloud
// links) are encoded as the string "inf" since JSON has no infinity
// literal; Float carries that encoding to any other float that may be
// infinite.
//
// The package also owns sweep persistence: Checkpoint is the
// fingerprinted per-cell store behind runner.Options.Checkpoint, and
// MergeCheckpoints combines the per-shard stores of a distributed sweep
// into one. The invariants: a store is bound to one sweep's exact
// parameters by its fingerprint and refuses any other; a killed sweep
// never leaves a store that fails to resume (legacy JSON stores are
// replaced atomically by write-to-temp and rename, stream stores grow
// by whole gzip members and shed a torn one); and a merged store is
// indistinguishable from one a single process wrote.
package serialize

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"saga/internal/graph"
	"saga/internal/schedule"
)

// Float is a float64 that may be +Inf, which JSON has no literal for:
// it encodes as the string "inf", and every finite value encodes exactly
// as a plain float64 does. Instances use it for infinite link strengths;
// sweep cells use it for makespan ratios, which are +Inf when a base
// schedule has makespan 0.
type Float float64

// MarshalJSON implements json.Marshaler.
func (w Float) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(w), 1) {
		return []byte(`"inf"`), nil
	}
	return json.Marshal(float64(w))
}

// UnmarshalJSON implements json.Unmarshaler.
func (w *Float) UnmarshalJSON(b []byte) error {
	if string(b) == `"inf"` {
		*w = Float(math.Inf(1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*w = Float(f)
	return nil
}

type jsonTask struct {
	Name string  `json:"name"`
	Cost float64 `json:"cost"`
}

type jsonDep struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Cost float64 `json:"cost"`
}

type jsonLink struct {
	U        int   `json:"u"`
	V        int   `json:"v"`
	Strength Float `json:"strength"`
}

type jsonInstance struct {
	Tasks  []jsonTask `json:"tasks"`
	Deps   []jsonDep  `json:"deps"`
	Speeds []Float    `json:"speeds"`
	Links  []jsonLink `json:"links"`
}

// MarshalInstance encodes an instance as JSON.
func MarshalInstance(inst *graph.Instance) ([]byte, error) {
	ji := jsonInstance{}
	for _, t := range inst.Graph.Tasks {
		ji.Tasks = append(ji.Tasks, jsonTask{Name: t.Name, Cost: t.Cost})
	}
	for u, succ := range inst.Graph.Succ {
		for _, d := range succ {
			ji.Deps = append(ji.Deps, jsonDep{From: u, To: d.To, Cost: d.Cost})
		}
	}
	for _, s := range inst.Net.Speeds {
		ji.Speeds = append(ji.Speeds, Float(s))
	}
	for u := 0; u < inst.Net.NumNodes(); u++ {
		for v := u + 1; v < inst.Net.NumNodes(); v++ {
			ji.Links = append(ji.Links, jsonLink{U: u, V: v, Strength: Float(inst.Net.Links[u][v])})
		}
	}
	return json.MarshalIndent(ji, "", "  ")
}

// UnmarshalInstance decodes an instance from JSON and validates it.
func UnmarshalInstance(data []byte) (*graph.Instance, error) {
	var ji jsonInstance
	if err := json.Unmarshal(data, &ji); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	g := graph.NewTaskGraph()
	for _, t := range ji.Tasks {
		g.AddTask(t.Name, t.Cost)
	}
	for _, d := range ji.Deps {
		if err := g.AddDep(d.From, d.To, d.Cost); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
	}
	net := graph.NewNetwork(len(ji.Speeds))
	for v, s := range ji.Speeds {
		net.Speeds[v] = float64(s)
	}
	for _, l := range ji.Links {
		if l.U < 0 || l.U >= net.NumNodes() || l.V < 0 || l.V >= net.NumNodes() {
			return nil, fmt.Errorf("serialize: link (%d, %d) out of range", l.U, l.V)
		}
		net.SetLink(l.U, l.V, float64(l.Strength))
	}
	inst := graph.NewInstance(g, net)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	return inst, nil
}

// SaveInstance writes an instance to path as JSON.
func SaveInstance(path string, inst *graph.Instance) error {
	data, err := MarshalInstance(inst)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*graph.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalInstance(data)
}

type jsonAssignment struct {
	Task  int     `json:"task"`
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

type jsonSchedule struct {
	NumNodes    int              `json:"num_nodes"`
	Assignments []jsonAssignment `json:"assignments"`
}

// MarshalSchedule encodes a schedule as JSON.
func MarshalSchedule(s *schedule.Schedule) ([]byte, error) {
	js := jsonSchedule{NumNodes: s.NumNodes}
	for _, a := range s.ByTask {
		js.Assignments = append(js.Assignments, jsonAssignment(a))
	}
	return json.MarshalIndent(js, "", "  ")
}

// UnmarshalSchedule decodes a schedule from JSON.
func UnmarshalSchedule(data []byte) (*schedule.Schedule, error) {
	var js jsonSchedule
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	s := &schedule.Schedule{NumNodes: js.NumNodes}
	for _, a := range js.Assignments {
		s.ByTask = append(s.ByTask, schedule.Assignment(a))
	}
	return s, nil
}
