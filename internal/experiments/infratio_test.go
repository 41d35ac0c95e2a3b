package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"saga/internal/runner"
	"saga/internal/serialize"
)

// TestPISACellInfiniteRatioCheckpoints pins that a PISA cell whose
// ratio is +Inf (a base schedule of makespan 0) survives a checkpointed
// sweep in both store formats: the run stores it instead of aborting,
// and a resumed run loads it back exactly without recomputing a cell.
func TestPISACellInfiniteRatioCheckpoints(t *testing.T) {
	ratios := []float64{1.25, math.Inf(1), 0.1 + 0.2, 0, math.Inf(1), 3}
	compute := func(k int) (pisaCell, error) {
		return pisaCell{Ratio: serialize.Float(ratios[k]), Instance: json.RawMessage(`{}`)}, nil
	}
	for _, name := range []string{"grid.ckpt", "grid.ckpt.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			open := func() *serialize.Checkpoint {
				ck := serialize.NewCheckpoint(path)
				ck.SetFingerprint("infinite ratios")
				return ck
			}
			if _, err := runner.Map(len(ratios), runner.Options{Workers: 2, Checkpoint: open()}, compute); err != nil {
				t.Fatalf("checkpointed sweep aborted: %v", err)
			}
			resumed, err := runner.Map(len(ratios), runner.Options{Workers: 2, Checkpoint: open()},
				func(k int) (pisaCell, error) { return pisaCell{}, fmt.Errorf("cell %d recomputed", k) })
			if err != nil {
				t.Fatal(err)
			}
			for k, want := range ratios {
				got := float64(resumed[k].Ratio)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell %d ratio %v, want %v", k, got, want)
				}
			}
		})
	}
}

// TestPISACellFiniteBytesUnchanged pins that finite ratios encode
// exactly as the plain float64 field did, so stores written before +Inf
// ratios were encodable stay byte-identical.
func TestPISACellFiniteBytesUnchanged(t *testing.T) {
	type plainCell struct {
		Ratio    float64         `json:"ratio"`
		Instance json.RawMessage `json:"instance"`
	}
	for _, r := range []float64{0, 1, 1.5, 0.1 + 0.2, 1e-300, 1e21, 123456789.125} {
		got, err := json.Marshal(pisaCell{Ratio: serialize.Float(r), Instance: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plainCell{Ratio: r, Instance: json.RawMessage(`{}`)})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("ratio %v encodes as %s, want %s", r, got, want)
		}
	}
	inf, err := json.Marshal(pisaCell{Ratio: serialize.Float(math.Inf(1)), Instance: json.RawMessage(`{}`)})
	if err != nil || string(inf) != `{"ratio":"inf","instance":{}}` {
		t.Fatalf("+Inf ratio encodes as %s, %v", inf, err)
	}
}
