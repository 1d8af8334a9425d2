package splitmix

import "testing"

// TestMatchesReferenceStream checks At against the first outputs of the
// reference SplitMix64 generator (Vigna's splitmix64.c) seeded at 0.
func TestMatchesReferenceStream(t *testing.T) {
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC} {
		if got := At(0, uint64(i)+1); got != want {
			t.Errorf("At(0, %d) = %#016x, want %#016x", i+1, got, want)
		}
	}
}
