package main

import (
	"fmt"
	"os"
	"os/exec"
	"time"
)

// A sweep's own set-up — resolving the sweep identity, instantiating the
// roster, binding and loading the store — takes microseconds in a warm
// process, and how many depends on the process more than on the code.
// What a `figures -checkpoint` user waits for before the first cell is
// that work in a fresh process: exec, runtime and package init, then
// the set-up. So the sweep workloads time exactly that, over many fresh
// processes, and report the median.

// setupProbes is the number of fresh processes timed per run.
const setupProbes = 21

// probeSetup times setupProbes runs of this binary in --setup-probe
// mode and returns the median wall time in seconds.
func probeSetup(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload, "--workdir", cfg.workDir)
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return median(walls), nil
}

// sweepSetupOnce is the --setup-probe body: one set-up of the
// workload's first block, its store left unwritten.
func sweepSetupOnce(workload, workDir string) error {
	var w sweepWorkload
	switch workload {
	case "pisa_grid":
		w = pisaGridWorkload(1)
	case "appspecific_sweep":
		w = appSpecificWorkload(1)
	default:
		return fmt.Errorf("--setup-probe applies to the sweep workloads only")
	}
	_, _, _, err := w.setup(runConfig{workDir: workDir}, w.config(0)[0], w.roster, "setup-probe")
	return err
}
