package calib

// The device catalog is the one place a device name becomes a
// calibration archive: the paper's machines as built-ins, every other
// name a synthetic zoo fleet (ZooArchive). nisqc -device and
// -list-devices and the nisqd device registry all read it. cmd/calgen
// keeps its own name → GenConfig switch on purpose: it emits generator
// output, so its q5 is a generated DefaultQ5Config fleet (resizable with
// -days), not the published snapshot the catalog serves.

// Builtin is one named device of the catalog.
type Builtin struct {
	Name        string
	Description string
	// Archive builds the device's calibration archive; fixed snapshots
	// ignore the seed.
	Archive func(seed int64) *Archive
}

// Builtins lists the catalog's named devices in listing order.
func Builtins() []Builtin {
	return []Builtin{
		{"q20", "IBM-Q20 (Tokyo) synthetic archive, 20 qubits",
			func(seed int64) *Archive { return Generate(DefaultQ20Config(seed)) }},
		{"q16", "IBM-Q16 (Rüschlikon) synthetic archive, 16 qubits",
			func(seed int64) *Archive { return Generate(DefaultQ16Config(seed)) }},
		{"q5", "IBM-Q5 (Tenerife) published snapshot, 5 qubits",
			func(int64) *Archive {
				s := TenerifeSnapshot()
				return &Archive{Topo: s.Topo, Snapshots: []*Snapshot{s}}
			}},
	}
}

// Named resolves a device name to its calibration archive: a built-in
// by name, otherwise the zoo fleet the name describes. A name that is
// neither gets the zoo's own error.
func Named(name string, seed int64) (*Archive, error) {
	for _, b := range Builtins() {
		if b.Name == name {
			return b.Archive(seed), nil
		}
	}
	return ZooArchive(name, seed)
}
