package route

import "slices"

// epochTable is the A* best-g table: an open-addressing hash table
// (linear probing, power-of-two size) from a mapping key to the cheapest
// cost at which the current search reached it. Keys live in the search's
// key slab (state si's key is keys[si*kw:(si+1)*kw]); a slot stores the
// index of the first state that reached its key, and probes hash and
// compare the key's words there.
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
type epochTable struct {
	slots []epochSlot // empty, or a power of two long
	epoch uint32      // current epoch; fresh slots (stamp 0) never match it
	live  int         // current-epoch entries
	kw    int         // key words per state
}

type epochSlot struct {
	si    int32 // state whose key the slot holds
	stamp uint32
	g     float64
}

// epochTableMinSlots is the size of a table's first allocation.
const epochTableMinSlots = 256

// reset empties the table in O(1) and starts a search whose keys are kw
// words wide. It must precede the first lookup.
func (t *epochTable) reset(kw int) {
	t.kw = kw
	t.live = 0
	t.epoch++
	if t.epoch == 0 {
		clear(t.slots)
		t.epoch = 1
	}
}

// key returns state si's key words.
func (t *epochTable) key(keys []uint64, si int32) []uint64 {
	return keys[int(si)*t.kw : (int(si)+1)*t.kw]
}

// find returns the slot index of k and whether k is present in the
// current epoch; when it is not, the index is the slot k would be
// stored in. The table must have at least one slot.
func (t *epochTable) find(keys, k []uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(hashKey(k)) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.stamp != t.epoch {
			return i, false
		}
		if slices.Equal(t.key(keys, s.si), k) {
			return i, true
		}
	}
}

// get returns the best g recorded for state si's key in the current
// epoch.
func (t *epochTable) get(keys []uint64, si int32) (float64, bool) {
	if t.live == 0 {
		return 0, false
	}
	if i, ok := t.find(keys, t.key(keys, si)); ok {
		return t.slots[i].g, true
	}
	return 0, false
}

// lower records g as the best cost of state si's key unless that key
// already holds a cost ≤ g, and reports whether it did: the A* "is this
// a better path to the state" test and its update in one probe.
func (t *epochTable) lower(keys []uint64, si int32, g float64) bool {
	if len(t.slots) == 0 {
		t.slots = make([]epochSlot, epochTableMinSlots)
	}
	k := t.key(keys, si)
	i, ok := t.find(keys, k)
	if ok {
		if g >= t.slots[i].g {
			return false
		}
	} else {
		// Keep the load at or below one half: most lookups are misses,
		// and a linear-probing miss lengthens quickly past that.
		if 2*(t.live+1) > len(t.slots) {
			t.grow(keys)
			i, _ = t.find(keys, k)
		}
		t.slots[i].si = si
		t.slots[i].stamp = t.epoch
		t.live++
	}
	t.slots[i].g = g
	return true
}

// grow doubles the capacity, reinserting only the current epoch's
// entries; the new slots start at stamp 0, which no epoch uses.
func (t *epochTable) grow(keys []uint64) {
	old := t.slots
	t.slots = make([]epochSlot, 2*len(old))
	for _, s := range old {
		if s.stamp == t.epoch {
			i, _ := t.find(keys, t.key(keys, s.si))
			t.slots[i] = s
		}
	}
}

// hashKey mixes the key words (each step multiplies by the golden-ratio
// constant and folds the high half down), finishing with the MurmurHash3
// fmix64 avalanche so the low bits used as the slot index depend on
// every entry of the mapping.
func hashKey(k []uint64) uint64 {
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
