package sim

import "vaq/internal/splitmix"

// splitmix64 is the packed kernel's per-block random stream: the
// SplitMix64 finalizer blockSeed uses for stream derivation, iterated as a
// generator. It is tiny (one word of state), splittable by construction
// (seeding two states from decorrelated values yields decorrelated
// streams), and fast enough that the packed kernel's throughput is bounded
// by sampling logic rather than by the generator. The scalar kernel keeps
// math/rand so its historical byte-exact trial streams survive unchanged.
type splitmix64 uint64

// next returns the next 64 uniform random bits.
func (s *splitmix64) next() uint64 {
	*s += splitmix.Gamma
	return splitmix.Mix(uint64(*s))
}

// open returns a uniform float64 in the half-open interval (0, 1]. The
// geometric skip-ahead sampler needs the open-at-zero side so ln(u) is
// always finite, and the closed-at-one side so a zero gap stays reachable.
func (s *splitmix64) open() float64 {
	return float64(s.next()>>11+1) * 0x1p-53
}
