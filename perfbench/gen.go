package main

import (
	"fmt"
	"math/rand"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/qasm"
	"vaq/internal/workloads"
)

// deviceSeed is the calibration seed of every built-in device model:
// nisqd's and repro's default, so the benchmark compiles onto the
// paper's IBM-Q20 model.
const deviceSeed = 2019

// compileEntry is one distinct compile-suite operation: a QASM program,
// the device it targets and the pipeline settings.
type compileEntry struct {
	Key      string
	Device   string
	QASM     string
	Policy   string
	Optimize bool
	Movement string
}

// Zoo devices and programs of the compile suite's scale-out share,
// routed with SABRE (A* does not scale to these lattices).
var (
	zooDevices  = []string{"heavy-hex-127", "heavy-hex-399", "heavy-hex-399-holes8"}
	zooPrograms = []string{"bv-24", "bv-48", "qft-10"}
	zooPolicies = []string{"baseline", "vqa+vqm"}
)

// compileCatalog lists every distinct compile-suite operation:
//   - the paper's Table 1 suite under all five policies on the Q20 and
//     Q16 models (programs that fit), every fourth entry with Optimize;
//   - the Table 3 kernels under all five policies on the Q5 model;
//   - BV and QFT on heavy-hex zoo lattices routed with SABRE.
//
// The catalog does not depend on the seed: each pass of a run compiles
// every entry once, in a seed-determined order, so runs on different
// seeds do the same total work.
func compileCatalog() ([]compileEntry, error) {
	var out []compileEntry
	add := func(dev, name string, c *circuit.Circuit, policy string, opt bool, movement string) {
		key := fmt.Sprintf("%s/%s/%s", dev, name, policy)
		if opt {
			key += "/opt"
		}
		if movement != "" {
			key += "/" + movement
		}
		out = append(out, compileEntry{Key: key, Device: dev, QASM: qasm.Serialize(c), Policy: policy, Optimize: opt, Movement: movement})
	}
	i := 0
	for _, dev := range []string{"q20", "q16"} {
		qubits := 20
		if dev == "q16" {
			qubits = 16
		}
		for _, w := range workloads.Table1Suite() {
			if w.Circuit.NumQubits > qubits {
				continue
			}
			for _, p := range core.AllPolicies() {
				add(dev, w.Name, w.Circuit, p.String(), i%4 == 3, "")
				i++
			}
		}
	}
	for _, w := range workloads.Q5Suite() {
		for _, p := range core.AllPolicies() {
			add("q5", w.Name, w.Circuit, p.String(), false, "")
		}
	}
	for _, dev := range zooDevices {
		for _, name := range zooPrograms {
			c, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			for _, p := range zooPolicies {
				add(dev, name, c, p, false, "sabre")
			}
		}
	}
	return out, nil
}

// compileSequence is a run's op order: passes back-to-back, each a
// seed-shuffled permutation of the catalog indices.
func compileSequence(seed int64, catalogLen, passes int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	seq := make([][]int, passes)
	for p := range seq {
		seq[p] = rng.Perm(catalogLen)
	}
	return seq
}

// buildDevice materializes a device model by its nisqd name.
func buildDevice(name string) (*device.Device, *calib.Archive, error) {
	var arch *calib.Archive
	switch name {
	case "q20":
		arch = calib.Generate(calib.DefaultQ20Config(deviceSeed))
	case "q16":
		arch = calib.Generate(calib.DefaultQ16Config(deviceSeed))
	case "q5":
		s := calib.TenerifeSnapshot()
		d, err := device.New(s.Topo, s)
		return d, &calib.Archive{Topo: s.Topo, Snapshots: []*calib.Snapshot{s}}, err
	default:
		var err error
		if arch, err = calib.ZooArchive(name, deviceSeed); err != nil {
			return nil, nil, err
		}
	}
	mean, err := arch.Mean()
	if err != nil {
		return nil, nil, err
	}
	d, err := device.New(arch.Topo, mean)
	return d, arch, err
}
