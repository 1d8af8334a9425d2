// Package device combines a coupling topology with one calibration
// snapshot into the cost model every policy consumes: per-link CNOT and
// SWAP success probabilities, the −log(success) edge weights that turn
// "maximize route reliability" into a shortest-path problem, and the
// distance matrices (hop-based for the baseline, reliability-based for
// VQM) the mappers search over, built row by row as they are read.
package device

import (
	"fmt"
	"math"
	"sync"

	"vaq/internal/calib"
	"vaq/internal/gate"
	"vaq/internal/graphx"
	"vaq/internal/topo"
)

// Device is an immutable pairing of a topology with a calibration
// snapshot. Construct with New; the accessors lazily build and cache the
// derived graphs and distance rows, so a Device is cheap to create and
// each distance row is computed at most once. The caches are
// sync.Once-guarded, so a Device is safe to share across the concurrent
// compilations the experiment fan-out performs.
type Device struct {
	topo *topo.Topology
	snap *calib.Snapshot

	hopGraphOnce   sync.Once
	costGraphOnce  sync.Once
	hopDistOnce    sync.Once
	costDistOnce   sync.Once
	centralityOnce sync.Once
	fpOnce         sync.Once
	hopGraph       *graphx.Graph
	costGraph      *graphx.Graph
	hopDist        *graphx.Rows
	costDist       *graphx.Rows
	centrality     []float64
	fp             uint64
}

// New validates the snapshot against the topology and returns a Device.
func New(t *topo.Topology, s *calib.Snapshot) (*Device, error) {
	if s.Topo != t {
		return nil, fmt.Errorf("device: snapshot is for topology %q, not %q", s.Topo.Name, t.Name)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	return &Device{topo: t, snap: s}, nil
}

// MustNew is New for known-good inputs; it panics on error.
func MustNew(t *topo.Topology, s *calib.Snapshot) *Device {
	d, err := New(t, s)
	if err != nil {
		panic(err)
	}
	return d
}

// Topology returns the underlying coupling map.
func (d *Device) Topology() *topo.Topology { return d.topo }

// Snapshot returns the calibration snapshot the device was built from.
func (d *Device) Snapshot() *calib.Snapshot { return d.snap }

// NumQubits returns the number of physical qubits.
func (d *Device) NumQubits() int { return d.topo.NumQubits }

// CNOTSuccess returns the success probability of one CNOT across the a–b
// coupling. It panics when a and b are not coupled.
func (d *Device) CNOTSuccess(a, b int) float64 {
	return 1 - d.snap.MustTwoQubitError(a, b)
}

// SwapSuccess returns the success probability of a SWAP across the a–b
// coupling: three CNOTs back to back, (1−e)³.
func (d *Device) SwapSuccess(a, b int) float64 {
	p := d.CNOTSuccess(a, b)
	return p * p * p
}

// SwapCost returns −ln(SwapSuccess(a,b)): the additive reliability cost of
// one SWAP, the edge weight of VQM's search graph. Minimizing the sum of
// these costs maximizes the product of success probabilities.
func (d *Device) SwapCost(a, b int) float64 {
	return -math.Log(d.SwapSuccess(a, b))
}

// OneQubitSuccess returns the success probability of a single-qubit gate
// on physical qubit q.
func (d *Device) OneQubitSuccess(q int) float64 { return 1 - d.snap.OneQubit[q] }

// ReadoutSuccess returns the success probability of measuring qubit q.
func (d *Device) ReadoutSuccess(q int) float64 { return 1 - d.snap.Readout[q] }

// GateSuccess returns the success probability of applying kind k to the
// physical qubits qs (already mapped). Two-qubit kinds require qs[0] and
// qs[1] to be coupled.
func (d *Device) GateSuccess(k gate.Kind, qs []int) float64 {
	switch k.Class() {
	case gate.NoError:
		return 1
	case gate.TwoQubit:
		if k == gate.SWAP {
			return d.SwapSuccess(qs[0], qs[1])
		}
		return d.CNOTSuccess(qs[0], qs[1])
	case gate.Readout:
		return d.ReadoutSuccess(qs[0])
	default:
		return d.OneQubitSuccess(qs[0])
	}
}

// HopGraph returns the coupling graph with unit edge weights: the baseline
// policy's view, where every SWAP costs the same.
func (d *Device) HopGraph() *graphx.Graph {
	d.hopGraphOnce.Do(func() { d.hopGraph = d.topo.Graph(1) })
	return d.hopGraph
}

// CostGraph returns the coupling graph weighted by SwapCost: VQM's view.
func (d *Device) CostGraph() *graphx.Graph {
	d.costGraphOnce.Do(func() {
		g := graphx.New(d.topo.NumQubits)
		for _, c := range d.topo.Couplings {
			g.AddEdge(c.A, c.B, d.SwapCost(c.A, c.B))
		}
		d.costGraph = g
	})
	return d.costGraph
}

// ReliabilityGraph returns the coupling graph weighted by CNOT success
// probability — the node-strength view used by VQA (higher is better).
func (d *Device) ReliabilityGraph() *graphx.Graph {
	g := graphx.New(d.topo.NumQubits)
	for _, c := range d.topo.Couplings {
		g.AddEdge(c.A, c.B, d.CNOTSuccess(c.A, c.B))
	}
	return g
}

// HopMatrix returns the minimum number of SWAP-capable hops between
// every pair (the baseline's distance table), one row per source, each
// row built by BFS on first touch. It is shared by every caller — the
// baseline allocator and the router's cost tables read the same rows —
// so its rows must not be written.
func (d *Device) HopMatrix() *graphx.Rows {
	d.hopDistOnce.Do(func() { d.hopDist = d.HopGraph().CSR().HopRows() })
	return d.hopDist
}

// CostMatrix returns the minimum total SwapCost between every pair
// (VQA's reliability distance, computed with Dijkstra as in Algorithm
// 1), each row built on first touch. Like HopMatrix it is shared and
// its rows must not be written.
func (d *Device) CostMatrix() *graphx.Rows {
	d.costDistOnce.Do(func() { d.costDist = d.CostGraph().CSR().DijkstraRows() })
	return d.costDist
}

// HopCentrality returns each physical qubit's mean hop distance to every
// qubit (itself included): the row means of the hop table, summed in
// ascending column order. It streams one BFS per source through a
// single buffer, so it costs O(n) memory rather than the n² of the
// table it summarizes. Built once per Device; must not be written.
func (d *Device) HopCentrality() []float64 {
	d.centralityOnce.Do(func() {
		csr := d.HopGraph().CSR()
		n := csr.N()
		row := make([]float64, n)
		queue := make([]int32, 0, n)
		d.centrality = make([]float64, n)
		for src := range d.centrality {
			csr.HopsInto(src, row, &queue)
			sum := 0.0
			for _, h := range row {
				sum += h
			}
			d.centrality[src] = sum / float64(n)
		}
	})
	return d.centrality
}

// Fingerprint returns a 64-bit digest of everything a routing or
// allocation cost table can depend on: the topology (name, size, coupling
// list) and every calibration figure of the snapshot (link/gate/readout
// error rates and coherence times). Two Devices with equal fingerprints
// are interchangeable for cost-table construction, so per-device caches —
// in particular the routing cost cache in internal/route — key on it.
// Recalibration (a new snapshot) or restriction (a sub-topology) produces
// a different fingerprint, which is how those caches invalidate.
//
// The digest is computed once (a Device is an immutable pairing; see the
// type comment) with FNV-1a over the raw float64 bits, so it is exact:
// any bit change in any rate changes the fingerprint.
func (d *Device) Fingerprint() uint64 {
	d.fpOnce.Do(func() {
		h := uint64(14695981039346656037) // FNV-1a offset basis
		mix := func(x uint64) {
			for i := 0; i < 8; i++ {
				h ^= x & 0xff
				h *= 1099511628211 // FNV-1a prime
				x >>= 8
			}
		}
		for _, b := range []byte(d.topo.Name) {
			h ^= uint64(b)
			h *= 1099511628211
		}
		mix(uint64(d.topo.NumQubits))
		for _, c := range d.topo.Couplings {
			mix(uint64(c.A))
			mix(uint64(c.B))
		}
		for _, c := range d.topo.Couplings {
			mix(math.Float64bits(d.snap.TwoQubit[c]))
		}
		for _, vs := range [][]float64{d.snap.OneQubit, d.snap.Readout, d.snap.T1Us, d.snap.T2Us} {
			for _, v := range vs {
				mix(math.Float64bits(v))
			}
		}
		d.fp = h
	})
	return d.fp
}

// RouteSuccess converts an additive reliability cost back into a success
// probability.
func RouteSuccess(cost float64) float64 { return math.Exp(-cost) }

// CoherenceDuty is the fraction of idle wall-clock time charged against
// T1/T2 throughout the repository (see package sim for its calibration
// against the paper's "gate errors are 16x more likely than coherence
// errors" figure).
const CoherenceDuty = 0.05

// SwapOverheadCost returns the marginal decoherence hazard of extending
// the schedule by one SWAP (three back-to-back CNOTs): every qubit inside
// its active window idles for the extra duration and decays against its
// T1/T2. The estimate charges half the machine's qubits (the average
// occupancy of active windows). Adding this to the per-SWAP reliability
// cost makes the router account for the time its detours cost — without
// it, a deep circuit's layer-local detours compound into schedules whose
// decoherence (and displacement) outweigh the per-route gains.
func (d *Device) SwapOverheadCost() float64 {
	rate := 0.0 // per-microsecond decay hazard summed over qubits
	for q := 0; q < d.topo.NumQubits; q++ {
		rate += 1/d.snap.T1Us[q] + 1/d.snap.T2Us[q]
	}
	swapUs := gate.DurationSwap.Seconds() * 1e6
	return CoherenceDuty * swapUs * rate
}

// Scale returns a new Device whose gate/readout error rates are
// transformed by calib.Snapshot.ScaleErrors — the Table 2 sensitivity knob.
func (d *Device) Scale(meanFactor, covMultiplier float64) *Device {
	return MustNew(d.topo, d.snap.ScaleErrors(meanFactor, covMultiplier))
}
