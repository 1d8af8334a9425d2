package alloc

import (
	"testing"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/workloads"
)

// BenchmarkAllocate times VQA allocation, whose cost is the strongest
// k-subgraph search, on the mean-calibrated Q20 model with bv-20 and on
// the 399-qubit heavy-hex fleet with bv-48.
func BenchmarkAllocate(b *testing.B) {
	q20 := calib.Generate(calib.DefaultQ20Config(2019))
	hh, err := calib.ZooArchive("heavy-hex-399", 2019)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		arch *calib.Archive
		prog *circuit.Circuit
	}{
		{"vqa/q20/bv-20", q20, workloads.BV(20)},
		{"vqa/heavy-hex-399/bv-48", hh, workloads.BV(48)},
	}
	for _, c := range cases {
		d := device.MustNew(c.arch.Topo, c.arch.MustMean())
		d.CostMatrix() // build the all-pairs cost table outside the timer
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (VQA{}).Allocate(d, c.prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
