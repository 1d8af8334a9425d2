package route

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/topo"
	"vaq/internal/workloads"
)

// resultHash serializes every observable field of a routed Result into a
// 64-bit FNV-1a hash: the physical gate stream (kind, operands, parameter,
// classical bit), both mappings, the swap count, and the movement indices.
// Two Results hash equal iff they are bit-identical for every consumer in
// the repository.
func resultHash(res *Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "n=%d cb=%d\n", res.Physical.NumQubits, res.Physical.NumCBits)
	for _, g := range res.Physical.Gates {
		fmt.Fprintf(h, "g %d %v %v %d\n", g.Kind, g.Qubits, g.Param, g.CBit)
	}
	fmt.Fprintf(h, "i %v\nf %v\ns %d\nm %v\n", res.Initial, res.Final, res.Swaps, res.Movement)
	return h.Sum64()
}

// goldenCase is one (device, circuit, mapping, router) combination whose
// routed output is pinned. The expected hashes were captured from the
// pre-packed-state implementation (PR 1), so this suite is the regression
// gate for "the zero-alloc rewrite changed no output bit".
type goldenCase struct {
	name   string
	device func() *device.Device
	prog   func() *circuit.Circuit
	init   func(d *device.Device, c *circuit.Circuit) alloc.Mapping
	router Router
	want   uint64
}

func goldenQ20() *device.Device {
	arch := calib.Generate(calib.DefaultQ20Config(2019))
	return device.MustNew(arch.Topo, arch.MustMean())
}

func goldenQ5() *device.Device {
	return uniformDevice(topo.IBMQ5(), 0.04)
}

// goldenZoo returns the mean-calibration device of a zoo fleet at seed
// 2019.
func goldenZoo(name string) func() *device.Device {
	return func() *device.Device {
		arch, err := calib.ZooArchive(name, 2019)
		if err != nil {
			panic(err)
		}
		return device.MustNew(arch.Topo, arch.MustMean())
	}
}

func identityInit(d *device.Device, c *circuit.Circuit) alloc.Mapping {
	return identity(c.NumQubits)
}

func permInit(seed int64) func(d *device.Device, c *circuit.Circuit) alloc.Mapping {
	return func(d *device.Device, c *circuit.Circuit) alloc.Mapping {
		rng := rand.New(rand.NewSource(seed))
		m := make(alloc.Mapping, c.NumQubits)
		copy(m, rng.Perm(d.NumQubits())[:c.NumQubits])
		return m
	}
}

func goldenRandomCircuit(n, gates int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rand", n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			c.H(a)
		case 1:
			c.RZ(rng.Float64(), a)
		default:
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
	}
	return c.MeasureAll()
}

func goldenCases() []goldenCase {
	hops := AStar{Cost: CostHops, MAH: -1}
	rel := AStar{Cost: CostReliability, MAH: -1}
	mah4 := AStar{Cost: CostReliability, MAH: 4}
	hopsX1 := AStar{Cost: CostHops, MAH: -1, MaxExpansions: 1}
	relX1 := AStar{Cost: CostReliability, MAH: -1, MaxExpansions: 1}
	mah1X1 := AStar{Cost: CostReliability, MAH: 1, MaxExpansions: 1}
	return []goldenCase{
		{"q20/bv16/hops", goldenQ20, func() *circuit.Circuit { return workloads.BV(16) }, identityInit, hops, 0x8974ee7d7da4d1b4},
		{"q20/bv16/reliability", goldenQ20, func() *circuit.Circuit { return workloads.BV(16) }, identityInit, rel, 0x0c26f74dbc0733aa},
		{"q20/bv16/mah4", goldenQ20, func() *circuit.Circuit { return workloads.BV(16) }, identityInit, mah4, 0x0c26f74dbc0733aa},
		{"q20/qft8/hops", goldenQ20, func() *circuit.Circuit { return workloads.QFT(8) }, permInit(7), hops, 0x166a87dd50b870d6},
		{"q20/qft8/reliability", goldenQ20, func() *circuit.Circuit { return workloads.QFT(8) }, permInit(7), rel, 0x847f2227429ac323},
		{"q20/qft8/mah4", goldenQ20, func() *circuit.Circuit { return workloads.QFT(8) }, permInit(7), mah4, 0x847f2227429ac323},
		{"q20/rand12/reliability", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), rel, 0x527ab2498035a25e},
		{"q20/rand12/naive", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), Naive{}, 0xfd8cd1abc6843082},
		{"ring5/rand4/hops", ring5Fig1, func() *circuit.Circuit { return goldenRandomCircuit(4, 20, 5) }, permInit(9), hops, 0x8066bc2c8eff2838},
		{"ring5/rand4/reliability", ring5Fig1, func() *circuit.Circuit { return goldenRandomCircuit(4, 20, 5) }, permInit(9), rel, 0x12bff4dc39499aa4},
		{"q5/bv4/reliability", goldenQ5, func() *circuit.Circuit { return workloads.BV(4) }, permInit(2), rel, 0xd6fdf65a50e1da2c},
		{"q5/triswap/mah4", goldenQ5, func() *circuit.Circuit {
			return circuit.New("triswap", 3).X(0).Swap(0, 1).Swap(1, 2).Swap(0, 1).MeasureAll()
		}, permInit(4), mah4, 0xcaff12d33c513115},
		// SABRE cases, pinned when the heuristic router landed. The A*
		// hashes above must never move because of these.
		{"q20/bv16/sabre-hops", goldenQ20, func() *circuit.Circuit { return workloads.BV(16) }, identityInit, Sabre{Cost: CostHops}, 0x981b4780a352ccbb},
		{"q20/bv16/sabre-rel", goldenQ20, func() *circuit.Circuit { return workloads.BV(16) }, identityInit, Sabre{Cost: CostReliability}, 0x5c9813711b042134},
		{"q20/qft8/sabre-rel", goldenQ20, func() *circuit.Circuit { return workloads.QFT(8) }, permInit(7), Sabre{Cost: CostReliability}, 0x5228e65ad7b4c315},
		{"q20/rand12/sabre-rel", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), Sabre{Cost: CostReliability}, 0xd8a9387e4196d085},
		{"ring5/rand4/sabre-hops", ring5Fig1, func() *circuit.Circuit { return goldenRandomCircuit(4, 20, 5) }, permInit(9), Sabre{Cost: CostHops}, 0xbf9ec707a545d8a9},
		{"hh399/bv40/sabre-hops", goldenZoo("heavy-hex-399-mid"), func() *circuit.Circuit { return workloads.BV(40) }, permInit(13), Sabre{Cost: CostHops}, 0x107e44b4ef80f477},
		{"hh399/bv40/sabre-rel", goldenZoo("heavy-hex-399-mid"), func() *circuit.Circuit { return workloads.BV(40) }, permInit(13), Sabre{Cost: CostReliability}, 0xe64414e2ec6c755a},
		// A* on heavy-hex fleets, pinned before the adjacency table was
		// rebuilt from hop rows: these read the table far from the
		// diagonal, where the small machines above never reach.
		{"hh127/qft8/hops", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), hops, 0xf807b8b1e54cc362},
		{"hh127/qft8/reliability", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), rel, 0x4dd3238b6ad7559d},
		{"hh127/qft8/mah4", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), mah4, 0x4dd3238b6ad7559d},
		// Path walks, pinned before the routers shared one walk over the
		// cached distance rows: a one-expansion A* routes every layer
		// through its gate-by-gate fallback, and Naive walks every
		// non-adjacent CNOT on lattices where shortest paths tie often.
		{"q20/rand12/hops-x1", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), hopsX1, 0x5a229301fcff71ff},
		{"q20/rand12/reliability-x1", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), relX1, 0x02474a296aaaa248},
		{"q20/rand12/mah1-x1", goldenQ20, func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(3), mah1X1, 0x02474a296aaaa248},
		{"hh127/qft8/hops-x1", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), hopsX1, 0x83c246f9d35e4ee5},
		{"hh127/qft8/reliability-x1", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), relX1, 0x702ee5c6deff48dd},
		{"hh127/qft8/mah1-x1", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return workloads.QFT(8) }, permInit(17), mah1X1, 0x702ee5c6deff48dd},
		{"hh127/rand12/naive", goldenZoo("heavy-hex-127-mid"), func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(23), Naive{}, 0x19afbdaf60206fae},
		{"grid100/rand12/naive", goldenZoo("grid-100-high"), func() *circuit.Circuit { return goldenRandomCircuit(12, 40, 11) }, permInit(29), Naive{}, 0x330bc6eba864d96d},
		// Wide state keys, pinned before A* keyed every width one way:
		// 30 program qubits × 9 bits take 5 key words, past the 4-word
		// key the search once packed into (wider mappings were keyed by
		// strings).
		{"line300/chain30/hops", line300, func() *circuit.Circuit { return goldenChain(30) }, gappedInit, hops, 0x12da88c75259e174},
		{"line300/chain30/reliability", line300, func() *circuit.Circuit { return goldenChain(30) }, gappedInit, rel, 0x12da88c75259e174},
	}
}

func line300() *device.Device { return uniformDevice(topo.Linear(300), 0.01) }

// goldenChain is a CNOT chain over k qubits: CX(i, i+1) for every i.
func goldenChain(k int) *circuit.Circuit {
	c := circuit.New("chain", k)
	for i := 0; i+1 < k; i++ {
		c.CX(i, i+1)
	}
	return c.MeasureAll()
}

// gappedInit places program qubit i on physical 2i, so every CNOT of a
// chain starts one link short of adjacency.
func gappedInit(d *device.Device, c *circuit.Circuit) alloc.Mapping {
	m := make(alloc.Mapping, c.NumQubits)
	for i := range m {
		m[i] = 2 * i
	}
	return m
}

// largeGoldenCases are A* routes on the 1000-qubit heavy-hex fleet,
// where the adjacency table is 10⁶ entries; they run only without
// -short.
func largeGoldenCases() []goldenCase {
	return []goldenCase{
		{"hh1000/qft12/hops", goldenZoo("heavy-hex-1000-mid"), func() *circuit.Circuit { return workloads.QFT(12) }, permInit(19), AStar{Cost: CostHops, MAH: -1}, 0x1ae7c135587ecf9e},
		{"hh1000/qft12/reliability", goldenZoo("heavy-hex-1000-mid"), func() *circuit.Circuit { return workloads.QFT(12) }, permInit(19), AStar{Cost: CostReliability, MAH: -1}, 0xcc3db2794c947926},
		{"hh1000/bv30/hops", goldenZoo("heavy-hex-1000-mid"), func() *circuit.Circuit { return workloads.BV(30) }, permInit(19), AStar{Cost: CostHops, MAH: -1}, 0x2afe918d5bc04d36},
		{"hh1000/bv30/reliability", goldenZoo("heavy-hex-1000-mid"), func() *circuit.Circuit { return workloads.BV(30) }, permInit(19), AStar{Cost: CostReliability, MAH: -1}, 0x2b7622cb409bc595},
	}
}

// TestGoldenRoutingDeterminism pins the routed output of every golden case
// to the hash captured before the zero-alloc rewrite, on both a cold and a
// warm cost cache. Set GOLDEN_PRINT=1 to print current hashes (for
// regenerating the table after an intentional output change).
func TestGoldenRoutingDeterminism(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") == "1"
	cases := goldenCases()
	if !testing.Short() {
		cases = append(cases, largeGoldenCases()...)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.device()
			c := tc.prog()
			init := tc.init(d, c)
			res, err := tc.router.Route(d, c, init)
			if err != nil {
				t.Fatal(err)
			}
			got := resultHash(res)
			if print {
				fmt.Printf("golden %-28s 0x%016x\n", tc.name, got)
				return
			}
			if got != tc.want {
				t.Fatalf("routed output changed: hash 0x%016x, golden 0x%016x", got, tc.want)
			}
			// Routing again (warm cost cache) must reproduce the same bytes.
			res2, err := tc.router.Route(d, c, init)
			if err != nil {
				t.Fatal(err)
			}
			if again := resultHash(res2); again != got {
				t.Fatalf("warm-cache rerun diverged: 0x%016x vs 0x%016x", again, got)
			}
			if err := Verify(d, c, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}
