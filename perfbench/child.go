package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// runChild is the re-executed benchmark: a set-up probe, one paper-repro
// regeneration, or a golden-file writer. It returns the exit code.
func runChild(mode string, opts options) int {
	var err error
	switch mode {
	case "setup":
		err = childSetup(opts)
	case "regen":
		err = childRegen(opts)
	case "golden":
		err = writeGoldens()
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaqbench child:", err)
		return 1
	}
	return 0
}

// childSetup performs the workload's set-up in a fresh process and
// reports how long it took: the cold cost a new process pays. A
// paper-repro set-up is timed from the parent's spawn, as repro's own
// start-up is part of it.
func childSetup(opts options) error {
	var d time.Duration
	var err error
	switch opts.workload {
	case "paper-repro":
		if _, err = reproSetup(); err == nil {
			d = time.Duration(sinceSpawn(opts) * 1e9)
		}
	case "compile-suite":
		_, d, err = setupCompile()
	case "serve-mixed":
		var env *serveEnv
		if env, _, d, err = setupServe(opts); err == nil {
			err = env.close()
		}
	default:
		err = fmt.Errorf("no set-up probe for %q", opts.workload)
	}
	if err != nil {
		return err
	}
	printJSONLine(map[string]float64{"setup_s": d.Seconds()})
	return nil
}

// childRun executes this benchmark binary with args, waits for it, and
// decodes the JSON object on the last line of its output into v. It
// returns the child's resource usage.
func childRun(v any, args ...string) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

// setupProbes runs the workload's set-up k times in fresh processes and
// returns each duration in seconds; with the run's own set-up they give
// a median set-up time.
func setupProbes(opts options, k int) ([]float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		var v struct {
			SetupS float64 `json:"setup_s"`
		}
		if _, err := childRun(&v, "--child", "setup", "--workload", opts.workload,
			"--seed", strconv.FormatInt(opts.seed, 10), "--spawned", strconv.FormatInt(time.Now().UnixNano(), 10)); err != nil {
			return nil, err
		}
		out = append(out, v.SetupS)
	}
	return out, nil
}

// writeGoldens records the digests the output checks compare against,
// under perfbench/testdata (run from the repository root).
func writeGoldens() error {
	if err := writeCompileGolden("perfbench/testdata/compile_digest.txt"); err != nil {
		return err
	}
	return writeReproGolden("perfbench/testdata/repro_tables.sha256")
}
