// Package splitmix owns the SplitMix64 finalizer, the one mixing function
// behind every seeded derivation in the module: the Monte-Carlo block
// seeds and packed-kernel streams, the portfolio's seed grid, the VQA
// sweep's perturbations, the jobs plane's backoff jitter and the
// topology zoo's hole shuffle. Each of those outputs is a pure function
// of its inputs, so reproducibility rests on this file alone.
package splitmix

// Gamma is the SplitMix64 stream increment: the odd 64-bit constant
// nearest 2⁶⁴/φ.
const Gamma = 0x9E3779B97F4A7C15

// Mix is the SplitMix64 finalizer, a bijection on 64-bit words that
// spreads every input bit over the whole output.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// At returns output i of the SplitMix64 stream seeded at seed: the value
// a generator whose state starts at seed returns on its i-th call.
func At(seed, i uint64) uint64 {
	return Mix(seed + i*Gamma)
}
