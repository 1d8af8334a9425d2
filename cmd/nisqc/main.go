// Command nisqc compiles a NISQ program onto a simulated IBM machine under
// one of the paper's policies and reports SWAP counts, depth, duration,
// and reliability (analytic PST plus a Monte-Carlo cross-check).
//
// Usage:
//
//	nisqc -workload bv-16 -policy vqa+vqm
//	nisqc -qasm program.qasm -device q5 -policy baseline -verbose
//	nisqc -workload qft-12 -portfolio 2
//	nisqc -ansatz su2-6 -sweep points.json
//
// Workload names: alu, bv-N, qft-N, rnd-SD, rnd-LD, ghz-N, triswap.
// Policies: native, baseline, vqm, vqm-hop, vqa+vqm; -movement overrides
// the routing pass (e.g. -movement sabre for large devices).
// Devices: q20 (IBM-Q20 model, default), q16, q5, or any synthetic zoo
// name like heavy-hex-399-mid (see -list-devices).
//
// -portfolio N switches from single-policy compilation to speculative
// portfolio compilation: every allocation × movement × optimizer
// candidate — over the reference device plus the N most recent
// calibration cycles (0: reference only) — compiles in parallel, is
// ranked by analytic ESP with Monte-Carlo refinement of the leaders,
// and the ranked table is printed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"vaq/internal/ansatz"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/cliutil"
	"vaq/internal/device"
	"vaq/internal/param"
	"vaq/internal/portfolio"
	"vaq/internal/qasm"
	"vaq/internal/route"
	"vaq/internal/schedule"
	"vaq/internal/serve"
	"vaq/internal/topo"
	"vaq/internal/trials"
	"vaq/internal/workloads"
)

// options holds every nisqc flag; register binds them to a flag set.
type options struct {
	workload, qasmPath, policy, device, movement, calibPath string
	ansatz, sweepPath                                       string
	seed                                                    int64
	trials, workers, portfolio                              int
	listDevices, verbose, outcomes, optimize, timeline      bool
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "built-in workload name (e.g. bv-16, qft-12, alu)")
	fs.StringVar(&o.qasmPath, "qasm", "", "path to an OpenQASM 2.0 program (alternative to -workload)")
	fs.StringVar(&o.policy, "policy", serve.DefaultPolicy, "compilation policy: native, baseline, vqm, vqm-hop, vqa+vqm")
	fs.StringVar(&o.device, "device", serve.DefaultDevice, "device model: "+builtinNames()+", or a synthetic zoo name like heavy-hex-399-mid (see -list-devices)")
	fs.StringVar(&o.movement, "movement", "", "movement-policy override: "+strings.Join(route.MovementNames(), ", ")+" (default: the policy's own router; sabre scales past ~100 qubits)")
	fs.BoolVar(&o.listDevices, "list-devices", false, "list the built-in device models and synthetic zoo families, then exit")
	fs.StringVar(&o.calibPath, "calib", "", "load the device from a calgen-produced JSON archive (mean snapshot) instead of -device")
	fs.Int64Var(&o.seed, "seed", serve.DefaultSeed, "seed for the synthetic calibration archive")
	fs.IntVar(&o.trials, "trials", serve.DefaultTrials, "Monte-Carlo trials")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines for Monte-Carlo trial sharding (0: one per CPU, <0: serial); the outcome is identical at any setting")
	fs.BoolVar(&o.verbose, "verbose", false, "print the compiled physical circuit as QASM")
	fs.BoolVar(&o.outcomes, "outcomes", false, "run the iterative execution model and print the output log analysis (Clifford programs only)")
	fs.BoolVar(&o.optimize, "O", false, "run the transpile optimizer (inverse cancellation, rotation merging) before mapping")
	fs.BoolVar(&o.timeline, "timeline", false, "print the ASAP schedule as an ASCII Gantt chart")
	fs.IntVar(&o.portfolio, "portfolio", -1, "portfolio-compile over the N most recent calibration cycles plus the reference device (0: reference only, <0: off) and print the ranked candidates")
	fs.StringVar(&o.ansatz, "ansatz", "", "parametric ansatz name (su2-N, qaoa-N): compile the symbolic template once and print the rebindable mapping summary")
	fs.StringVar(&o.sweepPath, "sweep", "", "JSON file of parameter points ([[...],[...]]); rebind the compiled template per point and print the sweep table (requires -ansatz or a symbolic -qasm)")
}

// usageError marks a flag value or combination run rejects before any
// work; main exits 2 on it, like a flag parse error.
type usageError struct{ error }

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "nisqc:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// builtinNames lists the catalog's built-in device names for help and
// error text.
func builtinNames() string {
	var names []string
	for _, b := range calib.Builtins() {
		names = append(names, b.Name)
	}
	return strings.Join(names, ", ")
}

// listDevices prints the built-in device models and the synthetic zoo
// families with their size bounds and variance tiers.
func listDevices(w io.Writer) {
	fmt.Fprintln(w, "built-in devices:")
	for _, b := range calib.Builtins() {
		fmt.Fprintf(w, "  %-4s %s\n", b.Name, b.Description)
	}
	fmt.Fprintf(w, "\nsynthetic zoo families (name form %s; -holes<k> knocks out k couplers deterministically):\n", calib.ZooNaming)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  family\tqubits\ttiers\tdescription")
	tiers := make([]string, 0, 3)
	for _, t := range calib.Tiers() {
		tiers = append(tiers, string(t))
	}
	for _, f := range topo.Families() {
		fmt.Fprintf(tw, "  %s\t%d–%d\t%s\tdefault mid; %s\n",
			f.Name, f.MinQubits, f.MaxQubits, strings.Join(tiers, "/"), f.Description)
	}
	tw.Flush()
	fmt.Fprintln(w, "\nexamples: -device heavy-hex-399, -device grid-100-high, -device grid-25-holes3-mid")
	fmt.Fprintln(w, "tip: pair large devices with -movement sabre (the A*-based policies are quadratic+)")
}

func run(o options) error {
	if o.listDevices {
		listDevices(os.Stdout)
		return nil
	}
	if err := cliutil.All(
		cliutil.Trials("trials", o.trials),
		cliutil.Workers("workers", o.workers),
	); err != nil {
		return usageError{err}
	}
	parametric := o.ansatz != "" || o.sweepPath != ""
	if parametric && o.portfolio >= 0 {
		return usageError{errors.New("-portfolio compiles a program, not a parametric template; drop -portfolio or -ansatz/-sweep")}
	}
	// The portfolio reads root seed 0 as unset and would run its default.
	if o.portfolio >= 0 && o.seed == 0 {
		return usageError{fmt.Errorf("-seed must be non-zero with -portfolio (0 would silently run root seed %d)", portfolio.DefaultRootSeed)}
	}
	if parametric {
		d, _, err := loadDevice(o.device, o.calibPath, o.seed)
		if err != nil {
			return err
		}
		return sweepAndReport(d, o)
	}
	prog, err := loadProgram(o.workload, o.qasmPath)
	if err != nil {
		return err
	}
	d, arch, err := loadDevice(o.device, o.calibPath, o.seed)
	if err != nil {
		return err
	}
	if o.portfolio >= 0 {
		return portfolioAndReport(d, arch, prog, o)
	}
	return compileAndReport(d, prog, o)
}

// loadTemplate resolves the parametric template: the named ansatz or a
// symbolic QASM file.
func loadTemplate(o options) (*param.ParametricCircuit, string, error) {
	switch {
	case o.ansatz != "" && (o.workload != "" || o.qasmPath != ""):
		return nil, "", fmt.Errorf("-ansatz replaces -workload/-qasm; specify one template source")
	case o.ansatz != "":
		pc, err := ansatz.ByName(o.ansatz)
		return pc, o.ansatz, err
	case o.qasmPath != "":
		src, err := os.ReadFile(o.qasmPath)
		if err != nil {
			return nil, "", err
		}
		pc, err := qasm.ParseParametric(string(src))
		return pc, o.qasmPath, err
	default:
		return nil, "", fmt.Errorf("-sweep needs a parametric template: -ansatz su2-N/qaoa-N or a symbolic -qasm file")
	}
}

// loadPoints reads a sweep file: a JSON array of parameter vectors.
func loadPoints(path string) ([][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var points [][]float64
	if err := json.Unmarshal(data, &points); err != nil {
		return nil, fmt.Errorf("sweep file %s: want a JSON array of number arrays: %v", path, err)
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep file %s has no points", path)
	}
	return points, nil
}

// sweepAndReport prints the parametric pipeline's result: serve.Sweep,
// shared with nisqd's /v1/sweep, compiles the template once and rebinds
// it per sweep point. Without -sweep it prints the mapping summary alone.
func sweepAndReport(d *device.Device, o options) error {
	pc, label, err := loadTemplate(o)
	if err != nil {
		return err
	}
	var points [][]float64
	if o.sweepPath != "" {
		if points, err = loadPoints(o.sweepPath); err != nil {
			return err
		}
	}
	res, err := serve.Sweep(context.Background(), d, pc, serve.Spec{
		Policy:   o.policy,
		Seed:     o.seed,
		Workers:  o.workers,
		Optimize: o.optimize,
		Movement: o.movement,
	}, points)
	if err != nil {
		return err
	}
	syms := make([]string, len(res.Symbols))
	for i, s := range res.Symbols {
		syms[i] = string(s)
	}
	fmt.Printf("parametric  %s on %s (policy %s)\n", label, res.Device.Name, res.Policy)
	fmt.Printf("params      %d free symbols: %s\n", res.NumParams, strings.Join(syms, " "))
	fmt.Printf("mapping     %d inst, %d CNOTs, depth %d (fixed across all bindings)\n",
		res.Physical.Instructions, res.Physical.CNOTs, res.Physical.Depth)
	fmt.Printf("analytic PST %.4f (angle-independent: shared by every sweep point)\n", res.AnalyticPST)
	if o.sweepPath == "" {
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "point\tvalues\tphysical fingerprint")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%d\t%s\t%s\n", p.Index, formatPoint(p.Values), p.Fingerprint)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("sweep       %d points, 1 compile, %d compiles saved\n", len(res.Points), res.CompilesSaved)
	return nil
}

// formatPoint renders a parameter vector compactly (long vectors are
// elided; the fingerprint identifies the full binding).
func formatPoint(vals []float64) string {
	const maxShown = 4
	parts := make([]string, 0, maxShown+1)
	for i, v := range vals {
		if i == maxShown {
			parts = append(parts, fmt.Sprintf("… +%d", len(vals)-maxShown))
			break
		}
		parts = append(parts, fmt.Sprintf("%.3g", v))
	}
	return strings.Join(parts, " ")
}

// loadDevice resolves -calib (a calgen archive file) or -device (a name
// in the calib device catalog) into the device model plus its
// calibration archive (the mean snapshot backs the device; the full
// archive feeds -portfolio's calibration-cycle window).
func loadDevice(deviceName, calibPath string, seed int64) (*device.Device, *calib.Archive, error) {
	var arch *calib.Archive
	var err error
	if calibPath != "" {
		arch, err = readArchive(calibPath)
	} else if arch, err = calib.Named(deviceName, seed); err != nil {
		err = fmt.Errorf("unknown device %q (want %s, or a zoo name — see -list-devices): %v", deviceName, builtinNames(), err)
	}
	if err != nil {
		return nil, nil, err
	}
	d, err := serve.NewDevice(arch)
	return d, arch, err
}

// readArchive loads a calgen JSON archive, reporting each quarantined
// snapshot on stderr.
func readArchive(path string) (*calib.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arch, quarantined, err := calib.ReadJSONLenient(f)
	for _, q := range quarantined {
		fmt.Fprintln(os.Stderr, "nisqc: quarantined", q)
	}
	return arch, err
}

// portfolioAndReport runs the speculative portfolio compiler and prints
// the ranked candidate table.
func portfolioAndReport(d *device.Device, arch *calib.Archive, prog *circuit.Circuit, o options) error {
	cycles := o.portfolio
	if cycles == 0 {
		cycles = -1 // reference device only
	}
	res, err := portfolio.Run(context.Background(), d, arch, prog, portfolio.Spec{
		RootSeed: o.seed,
		Cycles:   cycles,
		Trials:   o.trials,
		Workers:  o.workers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("portfolio   %s on %s (%d candidates ranked, %d failed, root seed %d)\n",
		prog.Name, d.Topology().Name, len(res.Candidates), len(res.Failures), res.RootSeed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tcandidate\tswaps\tinst\tdepth\tanalytic PST\tMC PST")
	for _, c := range res.Candidates {
		mc := "-"
		if c.MCResult != nil {
			mc = fmt.Sprintf("%.4f ± %.4f", c.MCResult.PST, c.MCResult.StdErr)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%.4f\t%s\n",
			c.Rank, c.Label(), c.Swaps, c.Instructions, c.Depth, c.AnalyticPST, mc)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "nisqc: candidate %s failed: %s\n", f.Label(), f.Reason)
	}
	if best := res.Best(); best != nil {
		fmt.Printf("best        %s (analytic PST %.4f)\n", best.Label(), best.AnalyticPST)
	}
	return nil
}

// compileAndReport is the back half of the pipeline once a device model
// exists: compile, verify, simulate, print. The compile-verify-estimate
// work and the report text live in serve.Run, shared with the nisqd
// daemon — the daemon's /v1/compile responses embed the exact string
// printed here, and an equivalence test pins the two byte for byte.
func compileAndReport(d *device.Device, prog *circuit.Circuit, o options) error {
	res, err := serve.Run(d, prog, serve.Spec{
		Policy:   o.policy,
		Seed:     o.seed,
		Trials:   o.trials,
		Workers:  o.workers,
		Optimize: o.optimize,
		Movement: o.movement,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Report)
	phys := res.PhysicalCircuit
	if o.timeline {
		fmt.Println("\n-- ASAP schedule (u=1q, C=2q, S=swap, M=measure; 100ns/column) --")
		fmt.Print(schedule.ASAP(phys).Timeline(100*time.Nanosecond, 120))
	}
	if o.outcomes {
		tres, err := trials.Run(d, phys, trials.Config{Trials: 4096, Seed: o.seed})
		if err != nil {
			return fmt.Errorf("outcome simulation: %w", err)
		}
		fmt.Println("\n-- iterative execution model (4096 trials) --")
		fmt.Print(tres.Summary())
	}
	if o.verbose {
		fmt.Println("\n-- compiled physical circuit --")
		fmt.Print(qasm.Serialize(phys))
	}
	return nil
}

func loadProgram(workload, qasmPath string) (*circuit.Circuit, error) {
	switch {
	case workload != "" && qasmPath != "":
		return nil, fmt.Errorf("specify either -workload or -qasm, not both")
	case qasmPath != "":
		src, err := os.ReadFile(qasmPath)
		if err != nil {
			return nil, err
		}
		return qasm.Parse(string(src))
	case workload != "":
		return builtin(workload)
	default:
		return nil, fmt.Errorf("specify -workload or -qasm (try -workload bv-16)")
	}
}

// builtin resolves a built-in workload name; the resolution itself
// lives in workloads.ByName, shared with the nisqd daemon.
func builtin(name string) (*circuit.Circuit, error) {
	return workloads.ByName(name)
}
