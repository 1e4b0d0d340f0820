package host

import "math/bits"

// flowTable maps flow IDs to transport endpoints: an open-addressing
// hash table with linear probing over power-of-two capacity, kept at
// most three-quarters full (the cumulative bytes then match the Go maps
// it replaced). It replaces map[uint64]*T on the per-packet demux
// path, where a lookup is one multiply and, for the dense sequential
// IDs the workload generators hand out, almost always one probe.
//
// There is no deletion — endpoints live for the run — so probe chains
// never hold tombstones. An empty slot is one whose val is nil, which
// leaves every uint64 (0 included) a valid key and makes put(k, nil)
// illegal. The zero flowTable is empty and ready to use.
type flowTable[T any] struct {
	slots []flowSlot[T]
	n     int
	shift uint // 64 - log2(len(slots)): hash bits -> slot index
}

type flowSlot[T any] struct {
	key uint64
	val *T
}

const flowTableMinCap = 8

// slot returns the slot holding k, or the empty slot where k belongs.
// The table must be allocated; load <= 3/4 guarantees termination.
func (t *flowTable[T]) slot(k uint64) *flowSlot[T] {
	mask := uint64(len(t.slots) - 1)
	// Fibonacci hashing: the high bits of k*2^64/phi spread sequential
	// keys evenly.
	for i := (k * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.val == nil || s.key == k {
			return s
		}
	}
}

// get returns the value stored under k, or nil.
func (t *flowTable[T]) get(k uint64) *T {
	if t.n == 0 {
		return nil
	}
	return t.slot(k).val
}

// put stores v under k, replacing any previous value.
func (t *flowTable[T]) put(k uint64, v *T) {
	if v == nil {
		panic("host: flow table cannot store nil")
	}
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	s := t.slot(k)
	if s.val == nil {
		t.n++
	}
	s.key, s.val = k, v
}

// grow doubles the capacity (or allocates the first slots) and
// reinserts every entry.
func (t *flowTable[T]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < flowTableMinCap {
		size = flowTableMinCap
	}
	t.slots = make([]flowSlot[T], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.val != nil {
			*t.slot(s.key) = s
		}
	}
}
