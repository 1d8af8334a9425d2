package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"vaq/internal/ansatz"
	"vaq/internal/calib"
	"vaq/internal/qasm"
	"vaq/internal/workloads"
)

// serveOp is one serve-mixed request: what it sends, and how its
// response is checked.
type serveOp struct {
	Kind string // compile, estimate, sweep, portfolio, batch, job, append
	Path string
	Body []byte
	// Repeat marks a body that may have been sent before: its response
	// must be byte-identical to the first one (a job compares its result
	// with the synchronous /v1/compile body).
	Repeat bool
}

// serveMix is the op mix by count per block of 20 ops: 50% compile, 15%
// estimate, 10% sweep, 5% portfolio, 10% batch, 5% job, 5% append.
var serveMix = []struct {
	kind  string
	count int
}{
	{"compile", 10}, {"estimate", 3}, {"sweep", 2}, {"portfolio", 1}, {"batch", 2}, {"job", 1}, {"append", 1},
}

// serveSegment is the number of consecutive ops in a segment, the
// serve-mixed "pass".
const serveSegment = 100

// hotCompile is the hot set: compile bodies replayed with a Zipf(1.1)
// popularity, so most are response-cache hits after their first use.
// Nothing in the repository records real nisqd traffic, so the hot share
// is chosen to keep cache hits a minority: two in five compiles, half of
// each batch, every job and one in three estimates replay it, at most
// 30% of all ops, so the median op does real work.
var hotCompile = []struct {
	workload, policy, device string
	trials                   int
}{
	{"bv-16", "vqa+vqm", "q20", 100000}, {"alu", "vqa+vqm", "q20", 50000}, {"qft-12", "vqm", "q20", 20000},
	{"bv-20", "baseline", "q20", 50000}, {"rnd-SD", "vqa+vqm", "q20", 20000}, {"bv-16", "vqm", "q16", 50000},
	{"qft-12", "vqa+vqm", "q16", 20000}, {"triswap", "vqa+vqm", "q5", 100000}, {"ghz-3", "vqm", "q5", 50000},
	{"bv-4", "baseline", "q5", 20000}, {"alu", "baseline", "q16", 20000}, {"rnd-LD", "vqm", "q20", 20000},
	{"qft-14", "vqa+vqm", "q20", 20000}, {"bv-20", "vqa+vqm", "q20", 100000}, {"bv-3", "native", "q5", 20000},
	{"qft-12", "baseline", "q20", 50000},
}

// coldShapes are the programs of fresh-seed compile bodies (compiles and
// batch items), cycled in order so every run does the same cold work
// whatever its seed.
var coldShapes = []struct {
	workload, policy, device string
	trials                   int
	inline                   bool
}{
	{"bv-16", "vqa+vqm", "q20", 50000, false}, {"alu", "vqm", "q20", 20000, true},
	{"qft-12", "vqa+vqm", "q16", 20000, false}, {"bv-8", "baseline", "q20", 100000, true},
	{"triswap", "vqa+vqm", "q5", 50000, false}, {"rnd-SD", "vqm-hop", "q20", 20000, true},
}

type compileBody struct {
	Workload string `json:"workload,omitempty"`
	QASM     string `json:"qasm,omitempty"`
	Policy   string `json:"policy"`
	Device   string `json:"device"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and slices are marshaled here
	}
	return b
}

// Estimate bodies cycle through every (workload, policy) pair.
var (
	estimateWorkloads = []string{"bv-16", "qft-12", "alu", "rnd-SD", "bv-20"}
	estimatePolicies  = []string{"vqa+vqm", "vqm", "baseline"}
)

func hotBody(i int) []byte {
	h := hotCompile[i]
	return mustJSON(compileBody{Workload: h.workload, Policy: h.policy, Device: h.device, Seed: deviceSeed, Trials: h.trials})
}

// zipf draws hot-set ranks with exponent 1.1 over len(hotCompile) items.
func newZipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, 1, uint64(len(hotCompile)-1))
}

// genServeOps builds a run's n ops (rounded up to whole 20-op blocks)
// from the seed: the kind order within every block, the hot-set draws,
// the fresh seeds of cold bodies, sweep points and calibration cycles.
// Which programs each kind
// sends, and how many of them repeat, is counted, not drawn, so every
// seed offers the same work.
func genServeOps(seed int64, n int) ([]serveOp, error) {
	rng := rand.New(rand.NewSource(seed))
	zipf := newZipf(rng)
	fresh := func() int64 { return 1_000_000 + rng.Int63n(1<<40) }
	cold := 0
	coldBody := func() ([]byte, error) {
		s := coldShapes[cold%len(coldShapes)]
		cold++
		b := compileBody{Policy: s.policy, Device: s.device, Seed: fresh(), Trials: s.trials}
		if s.inline {
			c, err := workloads.ByName(s.workload)
			if err != nil {
				return nil, err
			}
			b.QASM = qasm.Serialize(c)
		} else {
			b.Workload = s.workload
		}
		return mustJSON(b), nil
	}
	var kinds []string
	for _, m := range serveMix {
		for i := 0; i < m.count; i++ {
			kinds = append(kinds, m.kind)
		}
	}
	var ops []serveOp
	counts := map[string]int{}
	for len(ops) < n {
		block := append([]string(nil), kinds...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			op := serveOp{Kind: kind}
			k := counts[kind]
			counts[kind]++
			switch kind {
			case "compile":
				// Two in five compiles replay the hot set; three are cold.
				op.Path = "/v1/compile"
				if k%5 < 2 {
					op.Body, op.Repeat = hotBody(int(zipf.Uint64())), true
					break
				}
				body, err := coldBody()
				if err != nil {
					return nil, err
				}
				op.Body = body
			case "estimate":
				// One in three estimates repeats a body; the rest are fresh.
				b := compileBody{Workload: estimateWorkloads[k%len(estimateWorkloads)],
					Policy: estimatePolicies[k%len(estimatePolicies)], Device: "q20", Seed: deviceSeed}
				if k%3 == 0 {
					op.Repeat = true
				} else {
					b.Seed = fresh()
				}
				op.Path, op.Body = "/v1/estimate", mustJSON(b)
			case "sweep":
				name := []string{"qaoa-6", "su2-4"}[k%2]
				params, err := ansatz.Params(name)
				if err != nil {
					return nil, err
				}
				points := make([][]float64, 64)
				for i := range points {
					points[i] = make([]float64, params)
					for j := range points[i] {
						points[i][j] = math.Round(rng.Float64()*2*math.Pi*1e6) / 1e6
					}
				}
				op.Path = "/v1/sweep"
				op.Body = mustJSON(map[string]any{"ansatz": name, "device": "q20", "points": points})
			case "portfolio":
				op.Path = "/v1/portfolio"
				op.Body = mustJSON(map[string]any{"workload": []string{"bv-8", "qft-6"}[k%2], "device": "q20",
					"root_seed": fresh(), "cycles": 1, "random_starts": 1, "top_k": 2, "trials": 20000})
			case "batch":
				// Two hot items and two cold ones.
				items := make([]json.RawMessage, 4)
				for i := range items {
					if i < 2 {
						items[i] = hotBody(int(zipf.Uint64()))
						continue
					}
					body, err := coldBody()
					if err != nil {
						return nil, err
					}
					items[i] = body
				}
				op.Path, op.Body = "/v1/batch", mustJSON(map[string]any{"items": items})
			case "job":
				op.Path = "/v1/jobs"
				// Jobs come from four tenants, each under nisqd's per-tenant
				// submission rate limit.
				op.Body = mustJSON(map[string]any{"kind": "compile", "tenant": fmt.Sprintf("tenant-%d", k%4),
					"request": json.RawMessage(hotBody(int(zipf.Uint64())))})
				op.Repeat = true
			case "append":
				// Every other append drifts: its two-qubit errors grow
				// with the append count, so detection fires and the
				// canary recompiles the device's hot circuits.
				factor := 1.0
				if k%2 == 1 {
					factor = 1.5 + 0.25*float64(k/2)
				}
				body, err := driftedCycle(fresh(), factor)
				if err != nil {
					return nil, err
				}
				op.Path, op.Body = "/v1/calibration?name=q5&append=true", body
			}
			ops = append(ops, op)
		}
	}
	return ops, nil
}

// driftedCycle is one IBM-Q5 calibration cycle with every two-qubit
// error scaled by factor: a drifting machine.
func driftedCycle(seed int64, factor float64) ([]byte, error) {
	cfg := calib.DefaultQ5Config(seed)
	cfg.Days, cfg.CyclesPerDay = 1, 1
	arch := calib.Generate(cfg)
	for _, s := range arch.Snapshots {
		for _, c := range arch.Topo.Couplings {
			s.TwoQubit[c] = math.Min(0.4, s.TwoQubit[c]*factor)
		}
	}
	var buf bytes.Buffer
	if err := arch.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("calibration cycle: %w", err)
	}
	return buf.Bytes(), nil
}
