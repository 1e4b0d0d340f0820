package host

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fibInverse is the multiplicative inverse of the table's hash constant
// modulo 2^64, so fibInverse*x hashes to x: choosing x picks the home
// slot (its top bits) at every capacity.
const fibInverse uint64 = 0xf1de83e19937733d

// collidingKey returns the i-th distinct key whose home slot is `slot`
// in a table of up to 2^16 slots.
func collidingKey(slot uint16, i uint32) uint64 {
	x := uint64(slot)<<48 | uint64(i)
	return fibInverse * x
}

// tableModel pairs a flowTable with the map it replaces and checks they
// agree after every operation.
type tableModel struct {
	t     *testing.T
	table flowTable[int]
	ref   map[uint64]*int
	grown int
}

func (m *tableModel) put(k uint64) {
	v := new(int)
	*v = len(m.ref)
	before := len(m.table.slots)
	m.table.put(k, v)
	if len(m.table.slots) != before {
		m.grown++
	}
	m.ref[k] = v
	m.get(k)
	if m.table.n != len(m.ref) {
		m.t.Fatalf("after put(%#x): len %d, map has %d", k, m.table.n, len(m.ref))
	}
	if c := len(m.table.slots); c&(c-1) != 0 || 4*m.table.n > 3*c {
		m.t.Fatalf("capacity %d with %d keys: want a power of two at load <= 3/4", c, m.table.n)
	}
}

func (m *tableModel) get(k uint64) {
	if got, want := m.table.get(k), m.ref[k]; got != want {
		m.t.Fatalf("get(%#x) = %p, map has %p", k, got, want)
	}
}

// checkAll verifies every key the map holds and that the table holds
// nothing else.
func (m *tableModel) checkAll() {
	for k := range m.ref {
		m.get(k)
	}
	stored := 0
	for _, s := range m.table.slots {
		if s.val != nil {
			stored++
			if m.ref[s.key] != s.val {
				m.t.Fatalf("slot holds %#x -> %p, map has %p", s.key, s.val, m.ref[s.key])
			}
		}
	}
	if stored != len(m.ref) {
		m.t.Fatalf("table stores %d entries, map %d", stored, len(m.ref))
	}
}

func TestFibInverse(t *testing.T) {
	fib := uint64(0x9e3779b97f4a7c15) // a variable: the product must wrap, not overflow a constant
	if fib*fibInverse != 1 {
		t.Fatalf("fibInverse is not the inverse of the hash constant: product %#x", fib*fibInverse)
	}
	var tab flowTable[int]
	v := new(int)
	for i := uint32(0); i < 7; i++ { // 7 keys: capacity 16
		tab.put(collidingKey(0xabcd, i), v)
	}
	const home = 0xabcd >> 12 // top 4 bits: the slot in a 16-slot table
	for i := 0; i < 7; i++ {
		if tab.slots[(home+i)%len(tab.slots)].val == nil {
			t.Fatalf("colliding keys did not form one probe run from slot %d: %+v", home, tab.slots)
		}
	}
}

// TestFlowTableMatchesMap is the model test: random put / get / re-put
// against map[uint64]*T through many growths, over dense sequential IDs
// (the workload generators' pattern), key 0, arbitrary 64-bit keys and
// keys that all hash to one home slot.
func TestFlowTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := &tableModel{t: t, ref: map[uint64]*int{}}
	if m.table.get(0) != nil || m.table.n != 0 {
		t.Fatal("zero table is not empty")
	}
	m.put(0)
	var keys []uint64
	nextDense, nextCollide := uint64(1), uint32(0)
	for step := 0; step < 6000; step++ {
		var k uint64
		switch rng.Intn(8) {
		case 0, 1, 2: // next sequential flow ID
			k = nextDense
			nextDense++
		case 3: // arbitrary key
			k = rng.Uint64()
		case 4: // same home slot as every other such key
			k = collidingKey(0x1234, nextCollide)
			nextCollide++
		case 5: // re-put of an existing key: replaces, does not grow n
			if len(keys) > 0 {
				k = keys[rng.Intn(len(keys))]
			}
		default: // lookups: hits and (mostly) misses
			if len(keys) > 0 && rng.Intn(2) == 0 {
				m.get(keys[rng.Intn(len(keys))])
			} else {
				m.get(rng.Uint64())
				m.get(nextDense + uint64(rng.Intn(4)))
			}
			continue
		}
		if _, had := m.ref[k]; !had {
			keys = append(keys, k)
		}
		m.put(k)
	}
	m.checkAll()
	if m.grown < 3 {
		t.Fatalf("table grew %d times; the test must cross at least 3 growths", m.grown)
	}
}

func TestFlowTableRejectsNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("put(k, nil) must panic: nil marks an empty slot")
		}
	}()
	var tab flowTable[int]
	tab.put(1, nil)
}

// FuzzFlowTable replays a byte string as table operations against the
// map model. Each op is one opcode byte and a key built from the bytes
// after it: dense (one byte), colliding (one byte picks among keys that
// share a home slot), or wide (eight bytes).
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 3, 0, 0, 0})                                     // key 0: put, get, re-put
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 3, 1, 3, 5, 3, 9})       // dense run up to the first growth
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 4, 0, 4, 5, 4, 9}) // one home slot: a six-slot probe chain
	f.Add([]byte{2, 255, 255, 255, 255, 255, 255, 255, 255, 5, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 1, 1, 1, 0, 1})
	dense := make([]byte, 0, 200)
	for i := 0; i < 100; i++ { // 100 sequential IDs: growths to 256 slots
		dense = append(dense, 0, byte(i))
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &tableModel{t: t, ref: map[uint64]*int{}}
	ops:
		for len(data) > 0 {
			op := data[0] % 6
			data = data[1:]
			var k uint64
			switch op % 3 {
			case 0, 1:
				if len(data) < 1 {
					break ops
				}
				k = uint64(data[0])
				if op%3 == 1 {
					k = collidingKey(7, uint32(data[0]))
				}
				data = data[1:]
			case 2:
				if len(data) < 8 {
					break ops
				}
				k = binary.LittleEndian.Uint64(data)
				data = data[8:]
			}
			if op < 3 {
				m.put(k)
			} else {
				m.get(k)
			}
		}
		m.checkAll()
	})
}
