package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vaq/internal/calib"
)

// parse fills options from command-line arguments the way main does,
// flag defaults included.
func parse(t *testing.T, args ...string) options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("nisqc", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestBuiltinWorkloads(t *testing.T) {
	cases := map[string]int{
		"alu": 10, "bv-16": 16, "qft-8": 8, "ghz-4": 4,
		"triswap": 3, "rnd-SD": 20, "rnd-LD": 20, "BV-5": 5, // case-insensitive
	}
	for name, qubits := range cases {
		c, err := builtin(name)
		if err != nil {
			t.Errorf("builtin(%q): %v", name, err)
			continue
		}
		if c.NumQubits != qubits {
			t.Errorf("builtin(%q) qubits = %d, want %d", name, c.NumQubits, qubits)
		}
	}
	for _, bad := range []string{"", "nope", "bv-", "qft-x", "ghz-"} {
		if _, err := builtin(bad); err == nil {
			t.Errorf("builtin(%q) accepted", bad)
		}
	}
}

func TestLoadProgramModes(t *testing.T) {
	if _, err := loadProgram("", ""); err == nil {
		t.Error("empty args accepted")
	}
	if _, err := loadProgram("bv-4", "file.qasm"); err == nil {
		t.Error("both workload and qasm accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.qasm")
	src := "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadProgram("", path)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || len(c.Gates) != 3 {
		t.Fatalf("parsed program wrong: %d qubits, %d gates", c.NumQubits, len(c.Gates))
	}
	if _, err := loadProgram("", filepath.Join(dir, "missing.qasm")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Full pipeline through every device and a Clifford outcome run.
	for _, dev := range []string{"q20", "q16", "q5"} {
		if err := run(parse(t, "-workload", "triswap", "-policy", "vqa+vqm", "-device", dev, "-seed", "1", "-trials", "2000")); err != nil {
			t.Errorf("triswap on %s: %v", dev, err)
		}
		if err := run(parse(t, "-workload", "ghz-3", "-policy", "vqa+vqm", "-device", dev, "-seed", "1", "-trials", "5000", "-outcomes", "-O")); err != nil {
			t.Errorf("run on %s: %v", dev, err)
		}
	}
	if err := run(parse(t, "-workload", "qft-6", "-policy", "baseline", "-device", "q20", "-seed", "1", "-trials", "5000", "-verbose", "-O")); err != nil {
		t.Errorf("qft run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(parse(t, "-workload", "bv-4", "-policy", "bogus", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("bogus policy accepted")
	}
	if err := run(parse(t, "-workload", "bv-4", "-policy", "baseline", "-device", "bogus", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("bogus device accepted")
	}
	if err := run(parse(t, "-workload", "bv-12", "-policy", "baseline", "-device", "q5", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("12-qubit program on q5 accepted")
	}
	// Outcome mode on a non-Clifford program must fail cleanly.
	if err := run(parse(t, "-workload", "qft-4", "-policy", "baseline", "-device", "q20", "-seed", "1", "-trials", "100", "-outcomes")); err == nil {
		t.Error("outcome mode accepted non-Clifford program")
	}
}

// TestPortfolioSeedZero: the portfolio reads root seed 0 as unset, so
// -seed 0 with -portfolio is a usage error (exit 2) rather than a run
// under a seed the user did not ask for.
func TestPortfolioSeedZero(t *testing.T) {
	err := run(parse(t, "-workload", "bv-4", "-device", "q5", "-portfolio", "0", "-seed", "0"))
	if !errors.As(err, new(usageError)) {
		t.Fatalf("err = %v, want a usage error", err)
	}
}

func TestRunWithCalibArchive(t *testing.T) {
	// calgen json → nisqc -calib round trip through the filesystem.
	dir := t.TempDir()
	path := filepath.Join(dir, "arch.json")
	arch := calib.Generate(calib.DefaultQ5Config(4))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(parse(t, "-workload", "ghz-3", "-policy", "vqa+vqm", "-device", "", "-calib", path, "-seed", "1", "-trials", "2000")); err != nil {
		t.Fatal(err)
	}
	if err := run(parse(t, "-workload", "ghz-3", "-policy", "baseline", "-device", "", "-calib", filepath.Join(dir, "missing.json"), "-seed", "1", "-trials", "100")); err == nil {
		t.Fatal("missing calib file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if err := run(parse(t, "-workload", "ghz-3", "-policy", "baseline", "-device", "", "-calib", bad, "-seed", "1", "-trials", "100")); err == nil {
		t.Fatal("corrupt calib file accepted")
	}
}

func TestTimelineFlag(t *testing.T) {
	if err := run(parse(t, "-workload", "ghz-3", "-policy", "baseline", "-device", "q5", "-seed", "1", "-trials", "1000", "-timeline")); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFlag(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	if err := os.WriteFile(pts, []byte("[[0.1,0.2],[0.3,0.4]]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(parse(t, "-ansatz", "qaoa-4", "-sweep", pts, "-policy", "vqa+vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err != nil {
		t.Fatal(err)
	}
	// Template summary alone (no sweep file).
	if err := run(parse(t, "-ansatz", "qaoa-4", "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err != nil {
		t.Fatal(err)
	}
	// Symbolic QASM file as the template source.
	qasmFile := filepath.Join(dir, "vqa.qasm")
	src := "qreg q[2]; creg c[2]; ry(theta) q[0]; cx q[0],q[1]; measure q[0] -> c[0];"
	if err := os.WriteFile(qasmFile, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch: the template has 1 symbol, the points carry 2.
	if err := run(parse(t, "-qasm", qasmFile, "-sweep", pts, "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	one := filepath.Join(dir, "one.json")
	os.WriteFile(one, []byte("[[0.25],[0.5]]"), 0o644)
	if err := run(parse(t, "-qasm", qasmFile, "-sweep", one, "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err != nil {
		t.Fatal(err)
	}
}

func TestSweepFlagErrors(t *testing.T) {
	// -sweep with no template source.
	if err := run(parse(t, "-sweep", "/nonexistent.json", "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("sweep without template accepted")
	}
	// -ansatz beside -workload.
	if err := run(parse(t, "-ansatz", "qaoa-4", "-workload", "bv-4", "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("-ansatz plus -workload accepted")
	}
	// -O is incompatible with parametric compilation.
	if err := run(parse(t, "-ansatz", "qaoa-4", "-O", "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("-O accepted with -ansatz")
	}
	// Unknown ansatz and bad sweep files fail cleanly.
	if err := run(parse(t, "-ansatz", "zap-9", "-policy", "vqm", "-device", "q20", "-seed", "1", "-trials", "100")); err == nil {
		t.Error("unknown ansatz accepted")
	}
	// -portfolio compiles programs, not templates: beside -ansatz or
	// -sweep it is a usage error, never silently dropped.
	for _, args := range [][]string{
		{"-ansatz", "qaoa-4", "-portfolio", "0"},
		{"-ansatz", "qaoa-4", "-sweep", "/nonexistent.json", "-portfolio", "2"},
	} {
		err := run(parse(t, args...))
		if !errors.As(err, new(usageError)) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
