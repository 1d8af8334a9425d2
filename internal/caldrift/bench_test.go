package caldrift

import (
	"context"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/portfolio"
	"vaq/internal/workloads"
)

// BenchmarkDriftDetect measures one full-device detection pass over an
// 8-cycle Q20 window (363 tracked series).
func BenchmarkDriftDetect(b *testing.B) {
	cfg := calib.DefaultQ20Config(2019)
	cfg.Days, cfg.CyclesPerDay = 8, 1
	window := calib.Generate(cfg).Snapshots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Detect("q20", window, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanaryRecompile measures one canary run: a single hot BV(8)
// circuit speculatively recompiled through a reference-only portfolio
// grid on a drifted Q20 calibration.
func BenchmarkCanaryRecompile(b *testing.B) {
	cfg := calib.DefaultQ20Config(2019)
	cfg.Days, cfg.CyclesPerDay = 4, 1
	window := calib.Generate(cfg).Snapshots
	prog := workloads.BV(8)
	d0, err := device.New(window[0].Topo, window[0])
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := core.Compile(d0, prog, core.Options{Policy: core.VQAVQM, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	targets := []CanaryTarget{{Name: "bv8", Prog: prog, Stale: compiled.Routed.Physical}}
	spec := portfolio.Spec{RootSeed: 7, Cycles: -1, RandomStarts: -1, TopK: 1, Trials: 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Canary(context.Background(), window, targets, spec); err != nil {
			b.Fatal(err)
		}
	}
}
