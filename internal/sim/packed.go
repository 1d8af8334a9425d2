package sim

import (
	"math"
	"math/bits"
	"sync/atomic"

	"vaq/internal/gate"
)

// This file implements the packed Monte-Carlo kernel: 64 trials per
// machine word. Each error source's Bernoulli fault draw becomes a 64-bit
// failure mask, masks are OR-ed into a per-word `failed` accumulator, and
// first-failure attribution (gate vs readout vs coherence) falls out of
// mask algebra plus bits.OnesCount64 — the bit-parallel restatement of
// the scalar kernel's "first error class wins" walk.
//
// Three observations make the kernel fast without approximating anything:
//
//   - Class aggregation. The Outcome only observes a trial's
//     *first-failure class*, never which individual operation fired. Per
//     lane, "fails somewhere among class c's ops" is Bernoulli
//     P_c = 1 − Π(1−pᵢ), and the three class indicators are independent
//     (disjoint operation sets), so the whole error model collapses to at
//     most three mask rows per word — one per class — regardless of
//     circuit depth.
//
//   - Exact overlap resolution. A lane faulting in several classes must
//     attribute to whichever class faulted *first in circuit order*, and
//     with interleaved classes (mid-circuit measurement) that is not a
//     fixed priority. But conditioned on a lane's fault pattern S (the
//     subset of classes that fired), the first-fault class is an iid
//     categorical with probabilities computable in closed form from the
//     ordered operation list by Möbius inversion over class subsets (see
//     buildSplits). Overlap lanes are counted per pattern with popcounts
//     and split with variable-n binomial samplers — no per-lane work.
//
//   - Count-first mask sampling. A row's 64 iid Bernoulli(P) lane draws
//     are sampled as a Binomial(64, P) fault count (a Walker alias table,
//     one uniform per word) followed by a uniform placement of that many
//     distinct lanes — the two-stage factorization of an iid Bernoulli
//     vector. Rows below sparseRowCut skip the table entirely and run a
//     geometric skip-ahead over the row's flattened (lane × word)
//     Bernoulli grid, the regime the paper's ~1e-3 error rates live in;
//     denser rows use the direct alias draw so they stay exact too.
//
// Every stage samples the scalar model's distribution exactly (the
// statistical-equivalence suite in packed_test.go cross-checks packed vs
// scalar vs analytic, and the split probabilities are unit-tested against
// brute-force enumeration), but the packed stream consumes randomness in
// a different order, so packed and scalar outcomes agree statistically,
// not byte for byte. Within the packed kernel the contract is as strict
// as the scalar one: per-block streams are seeded from (cfg.Seed,
// blockIndex), making the Outcome a pure function of (model, Seed,
// Trials) at any worker count.

// packedClass indexes the failure-attribution counters; the values mirror
// the scalar kernel's readout-vs-everything-else split plus coherence.
type packedClass uint8

const (
	classGate packedClass = iota
	classReadout
	classCoherence
)

// sparseRowCut is the row probability below which the kernel samples by
// geometric skip-ahead instead of an alias table: under 64·P ≈ 0.5
// expected faults per word, the skip's one-uniform fast path wins.
const sparseRowCut = 1.0 / 128

// packedRow is one class-aggregate error source: the per-lane probability
// of at least one failure among the class's operations, plus the sampler
// prepared for it.
type packedRow struct {
	class packedClass
	p     float64
	// tbl samples the Binomial(64, p) fault count; nil for sparse rows.
	tbl *binomAlias
	// invLogQ = 1 / ln(1−p) drives the sparse rows' geometric skip-ahead:
	// gap = ⌊ln(u) · invLogQ⌋ (see sparseNext).
	invLogQ float64
}

// packedPlan is the packed kernel's compiled error model: up to one row
// per class, plus the overlap-split samplers.
type packedPlan struct {
	rows []packedRow
	// Overlap splits, by fault pattern: given n lanes whose pattern is
	// exactly {gate, readout}, gr samples how many attribute to gate
	// (the rest to readout), and so on. The three-class pattern splits in
	// two stages: grc1 samples the gate share, grc2 the readout share of
	// the remainder.
	gr, gc, rc, grc1, grc2 binomFamily
}

// buildPackedPlan aggregates the prepared per-op error model by class and
// precomputes the overlap-split probabilities.
func buildPackedPlan(gateErr []float64, gateClass []gate.ErrorClass, coh []float64) *packedPlan {
	// Per-class aggregate probabilities. Survival products are exact for
	// p ∈ [0, 1]; a certain failure zeroes its class's survival.
	var q [3]float64
	q[0], q[1], q[2] = 1, 1, 1
	for i, p := range gateErr {
		if p <= 0 {
			continue
		}
		c := classGate
		if gateClass[i] == gate.Readout {
			c = classReadout
		}
		q[c] *= 1 - p
	}
	for _, p := range coh {
		if p > 0 {
			q[classCoherence] *= 1 - p
		}
	}

	plan := &packedPlan{}
	tables := map[float64]*binomAlias{}
	var classP [3]float64
	for c := 0; c < 3; c++ {
		classP[c] = 1 - q[c]
		if classP[c] > 0 {
			plan.rows = append(plan.rows, makeRow(packedClass(c), classP[c], tables))
		}
	}
	plan.buildSplits(gateErr, gateClass, coh, classP)
	return plan
}

// buildSplits computes, for every overlap pattern S of fault classes, the
// conditional first-fault-class distribution π_S, walking the error model
// in circuit order so interleaved classes (mid-circuit measurement) are
// attributed exactly.
//
// Let f(V, c) = P(the trial's first faulting op has class c AND every
// faulting class lies in V):
//
//	f(V, c) = Π_{ops j ∉ V} (1−pⱼ) · Σ_{ops i of class c} pᵢ Π_{j<i, j ∈ V} (1−pⱼ)
//
// Möbius inversion over the subset lattice then isolates exact patterns:
//
//	P(first = c ∧ pattern = S) = Σ_{V ⊆ S} (−1)^{|S\V|} f(V, c)
//
// and π_S(c) is that, normalized over c ∈ S. The split samplers draw
// class shares of an n-lane pattern group as chained binomials.
//
// A pattern containing a class that never faults (classP 0) has
// probability exactly zero, but its Möbius sum cancels only to float
// rounding (~1e-17) — normalizing that noise would yield garbage q's, so
// impossible patterns' splits are pinned to 0 (they are never sampled).
func (plan *packedPlan) buildSplits(gateErr []float64, gateClass []gate.ErrorClass, coh []float64, classP [3]float64) {
	type op struct {
		p float64
		c packedClass
	}
	seq := make([]op, 0, len(gateErr)+len(coh))
	for i, p := range gateErr {
		if p <= 0 {
			continue
		}
		c := classGate
		if gateClass[i] == gate.Readout {
			c = classReadout
		}
		seq = append(seq, op{p, c})
	}
	for _, p := range coh {
		if p > 0 {
			seq = append(seq, op{p, classCoherence})
		}
	}

	// f[V][c] over the 8 class subsets V (bit c set ⇔ class c ∈ V).
	var f [8][3]float64
	for v := 1; v < 8; v++ {
		pref, alive := 1.0, 1.0
		var sum [3]float64
		for _, o := range seq {
			if v&(1<<o.c) != 0 {
				sum[o.c] += alive * o.p
				alive *= 1 - o.p
			} else {
				pref *= 1 - o.p
			}
		}
		for c := 0; c < 3; c++ {
			f[v][c] = pref * sum[c]
		}
	}
	// num(S, c): signed subset sum. V=0 contributes f=0.
	num := func(s int, c int) float64 {
		total := 0.0
		for v := s; v > 0; v = (v - 1) & s {
			if v&(1<<c) == 0 {
				continue
			}
			if (bits.OnesCount8(uint8(s))-bits.OnesCount8(uint8(v)))%2 == 0 {
				total += f[v][c]
			} else {
				total -= f[v][c]
			}
		}
		return total
	}
	possible := func(s int) bool {
		for c := 0; c < 3; c++ {
			if s&(1<<c) != 0 && classP[c] == 0 {
				return false
			}
		}
		return true
	}
	share := func(s int, a, b float64) float64 {
		if !possible(s) {
			return 0
		}
		if t := a + b; t > 0 {
			return math.Min(math.Max(a/t, 0), 1)
		}
		return 0
	}
	const g, r, c = 1 << classGate, 1 << classReadout, 1 << classCoherence
	plan.gr.q = share(g|r, num(g|r, 0), num(g|r, 1))
	plan.gc.q = share(g|c, num(g|c, 0), num(g|c, 2))
	plan.rc.q = share(r|c, num(r|c, 1), num(r|c, 2))
	ng, nr, nc := num(g|r|c, 0), num(g|r|c, 1), num(g|r|c, 2)
	plan.grc1.q = share(g|r|c, ng, nr+nc)
	plan.grc2.q = share(g|r|c, nr, nc)
}

func makeRow(class packedClass, p float64, tables map[float64]*binomAlias) packedRow {
	row := packedRow{class: class, p: p}
	if p < sparseRowCut {
		row.invLogQ = 1 / math.Log1p(-p)
		return row
	}
	tbl := tables[p]
	if tbl == nil {
		tbl = newBinomAlias(64, p)
		tables[p] = tbl
	}
	row.tbl = tbl
	return row
}

// runBlock is the packed counterpart of runBlockScalar: one block of
// ≤ BlockSize trials laid out as 64 lanes per word. It runs in two
// passes. The fill pass streams each class row over the block's words,
// sampling that class's raw failure masks (fault count via alias table or
// geometric skip-ahead, then uniform lane placement). The combine pass
// walks the words once, ORs the class masks into the failed word, counts
// survivors, attributes single-class lanes with mask algebra, and splits
// each overlap pattern's popcount through the plan's exact binomial
// splitters.
//
// The fill pass drives the block's words as two fixed halves on two
// independently seeded generator streams, interleaved word by word. The
// point is instruction-level parallelism: one splitmix64 stream is a
// serial dependency chain — sample draw feeds placement draws feeds the
// next word's sample — and interleaving two independent chains lets the
// out-of-order core overlap them. The half split and stream seeding are
// pure functions of (block seed, word count), so the determinism
// contract (Outcome = f(model, Seed, Trials), any worker count) holds.
//
// A partial trailing word samples exactly like a full one — the stream
// layout is a pure function of word count — and its unused lanes are
// sliced off by the combine pass's active mask.
func (pp *packedPlan) runBlock(seed int64, trials int) blockOutcome {
	// Three decorrelated streams: splitmix64 finalizes a hash of its
	// state, so distinct state offsets yield decorrelated sequences; a
	// quarter period apart they cannot overlap either.
	r1 := splitmix64(seed)
	r2 := splitmix64(uint64(seed) + 1<<63)
	r3 := splitmix64(uint64(seed) + 1<<62)
	nw := (trials + 63) / 64
	h := nw / 2
	var masks [3][BlockSize / 64]uint64
	for i := range pp.rows {
		row := &pp.rows[i]
		buf := &masks[row.class]
		tbl := row.tbl
		if tbl == nil {
			// Sparse row: geometric skip-ahead over each half's flattened
			// lane grid — cost O(expected faults), not O(words).
			sparseFill(&r1, buf[:h], row.invLogQ)
			sparseFill(&r2, buf[h:nw], row.invLogQ)
			continue
		}
		for w := 0; w < h; w++ {
			u1 := r1.next()
			u2 := r2.next()
			hi1, lo1 := bits.Mul64(u1, 65)
			hi2, lo2 := bits.Mul64(u2, 65)
			hi1 &= 127
			hi2 &= 127
			n1 := int(hi1)
			if lo1 >= tbl.prob[hi1] {
				n1 = int(tbl.alias[hi1])
			}
			n2 := int(hi2)
			if lo2 >= tbl.prob[hi2] {
				n2 = int(tbl.alias[hi2])
			}
			if n1 != 0 {
				buf[w] = placeMask(&r1, n1)
			}
			if n2 != 0 {
				buf[h+w] = placeMask(&r2, n2)
			}
		}
		if nw&1 != 0 {
			if n := tbl.sample(&r2); n != 0 {
				buf[nw-1] = placeMask(&r2, n)
			}
		}
	}

	var counts [3]int
	succ := 0
	active := ^uint64(0)
	for w := 0; w < nw; w++ {
		if w == nw-1 {
			if rem := trials & 63; rem != 0 {
				active = uint64(1)<<uint(rem) - 1
			}
		}
		mg := masks[classGate][w] & active
		mr := masks[classReadout][w] & active
		mc := masks[classCoherence][w] & active
		succ += bits.OnesCount64(active &^ (mg | mr | mc))
		counts[classGate] += bits.OnesCount64(mg &^ mr &^ mc)
		counts[classReadout] += bits.OnesCount64(mr &^ mg &^ mc)
		counts[classCoherence] += bits.OnesCount64(mc &^ mg &^ mr)
		if n := bits.OnesCount64(mg & mr &^ mc); n != 0 {
			k := pp.gr.sample(&r3, n)
			counts[classGate] += k
			counts[classReadout] += n - k
		}
		if n := bits.OnesCount64(mg & mc &^ mr); n != 0 {
			k := pp.gc.sample(&r3, n)
			counts[classGate] += k
			counts[classCoherence] += n - k
		}
		if n := bits.OnesCount64(mr & mc &^ mg); n != 0 {
			k := pp.rc.sample(&r3, n)
			counts[classReadout] += k
			counts[classCoherence] += n - k
		}
		if n := bits.OnesCount64(mg & mr & mc); n != 0 {
			kg := pp.grc1.sample(&r3, n)
			kr := pp.grc2.sample(&r3, n-kg)
			counts[classGate] += kg
			counts[classReadout] += kr
			counts[classCoherence] += n - kg - kr
		}
	}
	return blockOutcome{
		successes: succ,
		gate:      counts[classGate],
		readout:   counts[classReadout],
		coherence: counts[classCoherence],
	}
}

// sparseFill sets each lane of buf's flattened grid with the row's
// per-lane fault probability via geometric skip-ahead.
func sparseFill(r *splitmix64, buf []uint64, invLogQ float64) {
	grid := len(buf) * 64
	for pos := sparseNext(r, 0, grid, invLogQ); pos < grid; pos = sparseNext(r, pos+1, grid, invLogQ) {
		buf[pos>>6] |= 1 << uint(pos&63)
	}
}

// sparseNext advances a geometric skip-ahead scan over a flattened
// Bernoulli(p) lane grid: given the first candidate position pos, it
// returns the next faulting position, or grid if the row has no further
// fault. The gap to the next fault is the inverse geometric CDF
// ⌊ln(u)/ln(1−p)⌋ with u uniform in (0, 1], compared against the
// remaining grid length before the float→int conversion so huge gaps
// (tiny p) cannot overflow.
func sparseNext(r *splitmix64, pos, grid int, invLogQ float64) int {
	g := math.Log(r.open()) * invLogQ
	if g >= float64(grid-pos) {
		return grid
	}
	return pos + int(g)
}

// placeMask returns a uniformly random mask with exactly n of 64 bits
// set. Strategies by regime (all exact, none distribution-approximating):
//
//	n > 32:  complement of a uniform (64−n)-subset
//	n ≤ 20:  rejection placement — draw uniform 6-bit lane indices
//	         (ten per generator word), skipping repeats, until n
//	         distinct lanes are set
//	n ≤ 32:  a uniform word walked to popcount n by uniform single-bit
//	         removals/insertions — each step maps a uniform k-subset to a
//	         uniform (k±1)-subset, so the endpoint is a uniform n-subset
//
// Both loops discard any 6-bit fields left unread when they finish; the
// discard is independent of the fields' values, so the consumed indices
// stay iid uniform.
func placeMask(r *splitmix64, n int) uint64 {
	if n > 32 {
		return ^placeSmall(r, 64-n)
	}
	return placeSmall(r, n)
}

func placeSmall(r *splitmix64, n int) uint64 {
	if n >= 21 {
		m := r.next()
		k := bits.OnesCount64(m)
		for k != n {
			rw := r.next()
			for left := 10; left > 0 && k != n; left-- {
				b := uint64(1) << (rw & 63)
				rw >>= 6
				if k > n {
					if m&b != 0 {
						m &^= b
						k--
					}
				} else if m&b == 0 {
					m |= b
					k++
				}
			}
		}
		return m
	}
	var mask uint64
	for placed := 0; placed < n; {
		rw := r.next()
		for left := 10; left > 0 && placed < n; left-- {
			b := uint64(1) << (rw & 63)
			rw >>= 6
			if mask&b == 0 {
				mask |= b
				placed++
			}
		}
	}
	return mask
}

// binomFamily lazily caches Binomial(n, q) alias samplers for every lane
// count n ∈ [0, 64] at one fixed success probability q — the
// variable-size half of the overlap splits. Tables build on first use
// (most plans only ever touch the few n values their overlap popcounts
// concentrate on); a racing duplicate build stores an identical table, so
// the atomic pointers need no further synchronization.
type binomFamily struct {
	q   float64
	tbl [65]atomic.Pointer[binomAlias]
}

// sample draws Binomial(n, q).
func (bf *binomFamily) sample(r *splitmix64, n int) int {
	if n == 0 || bf.q <= 0 {
		return 0
	}
	if bf.q >= 1 {
		return n
	}
	t := bf.tbl[n].Load()
	if t == nil {
		t = newBinomAlias(n, bf.q)
		bf.tbl[n].Store(t)
	}
	return t.sample(r)
}

// binomAlias samples a Binomial(n, p) count in O(1) by Walker's alias
// method over the (padded) 65-outcome pmf. Thresholds are 64-bit, so the
// sampled distribution matches the float64 pmf to one part in 2⁶⁴ — far
// below the pmf's own rounding error. Arrays are padded to 128 so the
// masked index provably stays in bounds (no bounds check in the hot
// path).
type binomAlias struct {
	prob  [128]uint64
	alias [128]uint8
}

// lgFact[n] = ln(n!) for the binomial pmf, filled at init.
var lgFact [65]float64

func init() {
	for n := 2; n <= 64; n++ {
		lg, _ := math.Lgamma(float64(n + 1))
		lgFact[n] = lg
	}
}

func newBinomAlias(n int, p float64) *binomAlias {
	var pmf [65]float64
	switch {
	case p >= 1:
		pmf[n] = 1
	case p <= 0:
		pmf[0] = 1
	default:
		lp, lq := math.Log(p), math.Log1p(-p)
		sum := 0.0
		for k := 0; k <= n; k++ {
			pmf[k] = math.Exp(lgFact[n] - lgFact[k] - lgFact[n-k] + float64(k)*lp + float64(n-k)*lq)
			sum += pmf[k]
		}
		for k := 0; k <= n; k++ {
			pmf[k] /= sum
		}
	}

	t := &binomAlias{}
	const cols = 65
	var scaled [cols]float64
	var small, large []int
	for k := 0; k < cols; k++ {
		scaled[k] = pmf[k] * cols
		if scaled[k] < 1 {
			small = append(small, k)
		} else {
			large = append(large, k)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = uint64(scaled[s] * (1 << 63) * 2)
		t.alias[s] = uint8(l)
		scaled[l] += scaled[s] - 1
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers on either list have weight 1 up to rounding: always keep
	// their own column.
	for _, k := range large {
		t.prob[k] = ^uint64(0)
	}
	for _, k := range small {
		t.prob[k] = ^uint64(0)
	}
	return t
}

// sample draws one count: one uniform picks a column (top bits) and the
// within-column coin (low bits).
func (t *binomAlias) sample(r *splitmix64) int {
	u := r.next()
	hi, lo := bits.Mul64(u, 65)
	hi &= 127
	n := int(hi)
	if lo >= t.prob[hi] {
		n = int(t.alias[hi])
	}
	return n
}
