package route

import "hash/maphash"

// epochTable is the A* best-g table: an open-addressing hash table
// (linear probing, power-of-two size) from a mapping key to the cheapest
// cost at which the current search reached it.
//
// Every slot carries the epoch it was written in, and reset just bumps
// the table's epoch: slots from an older epoch read as empty, so
// starting a new layer's search costs O(1) however large an earlier
// search grew the table. A pooled Go map cannot do that — clear(map)
// walks the map's whole capacity, and a map never shrinks, so one wide
// search made every later small search pay for its peak size. When the
// 32-bit stamp wraps, the slots are cleared once. Entries are never
// deleted within an epoch, so a probe may stop at the first slot that is
// not current.
//
// The table is never iterated, so the hash function cannot influence the
// search's output.
type epochTable[K comparable] struct {
	slots []epochSlot[K] // empty, or a power of two long
	epoch uint32         // never 0: fresh slots (stamp 0) read as empty
	live  int            // current-epoch entries
	hash  func(K) uint64
}

type epochSlot[K comparable] struct {
	key   K
	g     float64
	stamp uint32
}

// epochTableMinSlots is the size of a table's first allocation.
const epochTableMinSlots = 256

func newEpochTable[K comparable](hash func(K) uint64) epochTable[K] {
	return epochTable[K]{epoch: 1, hash: hash}
}

// reset empties the table in O(1).
func (t *epochTable[K]) reset() {
	t.live = 0
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// find returns k's slot index and whether k is present in the current
// epoch; when it is not, the index is the slot k would be stored in.
// The table must have at least one slot.
func (t *epochTable[K]) find(k K) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(t.hash(k)) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.epoch {
			return i, false
		}
		if s.key == k {
			return i, true
		}
	}
}

// get returns the best g recorded for k in the current epoch.
func (t *epochTable[K]) get(k K) (float64, bool) {
	if t.live == 0 {
		return 0, false
	}
	if i, ok := t.find(k); ok {
		return t.slots[i].g, true
	}
	return 0, false
}

// lower records g as k's best cost unless k already holds a cost ≤ g,
// and reports whether it did: the A* "is this a better path to the
// state" test and its update in one probe.
func (t *epochTable[K]) lower(k K, g float64) bool {
	if len(t.slots) == 0 {
		t.slots = make([]epochSlot[K], epochTableMinSlots)
	}
	i, ok := t.find(k)
	if ok {
		if g >= t.slots[i].g {
			return false
		}
	} else {
		// Keep the load at or below one half: most lookups are misses,
		// and a linear-probing miss lengthens quickly past that.
		if 2*(t.live+1) > len(t.slots) {
			t.grow()
			i, _ = t.find(k)
		}
		t.slots[i].key = k
		t.slots[i].stamp = t.epoch
		t.live++
	}
	t.slots[i].g = g
	return true
}

// grow doubles the capacity, reinserting only the current epoch's
// entries; the new slots start at stamp 0, which no epoch uses.
func (t *epochTable[K]) grow() {
	old := t.slots
	t.slots = make([]epochSlot[K], 2*len(old))
	for _, s := range old {
		if s.stamp == t.epoch {
			i, _ := t.find(s.key)
			t.slots[i] = s
		}
	}
}

// hashPacked mixes the four key words (each step multiplies by the
// golden-ratio constant and folds the high half down), finishing with
// the MurmurHash3 fmix64 avalanche so the low bits used as the slot index
// depend on every entry of the mapping.
func hashPacked(k packedKey) uint64 {
	var h uint64
	for _, w := range k {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// stringSeed seeds the fallback string-key hash. It is random per
// process, which is safe because the table is never iterated.
var stringSeed = maphash.MakeSeed()

func hashString(s string) uint64 { return maphash.String(stringSeed, s) }
