package packet

import "testing"

// fifoModel is the slice reference FuzzPacketFIFO checks FIFO and Pool
// against: each queue a slice in arrival order, the free list a stack,
// and the packets no list holds in hand.
type fifoModel struct {
	t     *testing.T
	pool  Pool
	fifos [3]FIFO
	ref   [3][]*Packet
	free  []*Packet
	hand  []*Packet
	gets  int64
}

// check compares every FIFO with its slice, walking the links, and the
// pool's counters with the number of Gets.
func (m *fifoModel) check(step int) {
	for i := range m.fifos {
		f, want := &m.fifos[i], m.ref[i]
		if f.Len() != len(want) {
			m.t.Fatalf("step %d: fifo %d Len %d, model %d", step, i, f.Len(), len(want))
		}
		pkt := f.Head()
		for k, w := range want {
			if pkt != w {
				m.t.Fatalf("step %d: fifo %d packet %d is %p, model %p", step, i, k, pkt, w)
			}
			pkt = pkt.Next()
		}
		if pkt != nil {
			m.t.Fatalf("step %d: fifo %d links past its last packet", step, i)
		}
		var tail *Packet
		if len(want) > 0 {
			tail = want[len(want)-1]
		}
		if f.Tail() != tail {
			m.t.Fatalf("step %d: fifo %d Tail %p, model %p", step, i, f.Tail(), tail)
		}
	}
	if m.pool.Allocs+m.pool.Recycled != m.gets {
		m.t.Fatalf("step %d: allocs %d + recycled %d != %d gets", step, m.pool.Allocs, m.pool.Recycled, m.gets)
	}
}

// take removes and returns the k-th packet of s (mod its length).
func take(s *[]*Packet, k byte) *Packet {
	i := int(k) % len(*s)
	p := (*s)[i]
	*s = append((*s)[:i], (*s)[i+1:]...)
	return p
}

// FuzzPacketFIFO drives three FIFOs and a Pool with Get, Push, Pop,
// Put and double-Put sequences, and checks them against slices after
// every step: FIFO order, Head, Tail and Len, LIFO reuse order, zeroed
// recycled packets, and that a second Put of a pooled packet panics
// and changes nothing.
func FuzzPacketFIFO(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 2, 0, 2, 0, 2, 0})          // three through one queue
	f.Add([]byte{0, 0, 3, 0, 0, 0, 0, 0, 3, 0, 3, 0, 4, 0, 0, 0, 0, 0, 0, 0})    // LIFO reuse, double release
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 1, 2, 1, 2, 2, 2, 1, 3, 0, 3, 0, 0, 0, 1}) // queues drain and refill
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1, 0})                                        // a queue emptied, then pushed again
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &fifoModel{t: t}
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0]%5, data[1]
			data = data[2:]
			q := int(arg) % len(m.fifos)
			switch op {
			case 0: // Get
				m.gets++
				pkt := m.pool.Get()
				if n := len(m.free); n > 0 {
					if pkt != m.free[n-1] {
						t.Fatalf("step %d: Get returned %p, LIFO order wants %p", step, pkt, m.free[n-1])
					}
					m.free = m.free[:n-1]
				}
				if pkt.next != nil || pkt.EnqAt != 0 || pkt.FlowID != 0 || pkt.pooled {
					t.Fatalf("step %d: Get returned a packet not reset: %+v", step, pkt)
				}
				pkt.FlowID, pkt.EnqAt = uint64(step)+1, 1
				m.hand = append(m.hand, pkt)
			case 1: // Push a packet in hand
				if len(m.hand) == 0 {
					continue
				}
				pkt := take(&m.hand, arg/3)
				m.fifos[q].Push(pkt)
				m.ref[q] = append(m.ref[q], pkt)
			case 2: // Pop
				pkt := m.fifos[q].Pop()
				if len(m.ref[q]) == 0 {
					if pkt != nil {
						t.Fatalf("step %d: Pop of empty fifo %d returned %p", step, q, pkt)
					}
					continue
				}
				if want := m.ref[q][0]; pkt != want {
					t.Fatalf("step %d: Pop of fifo %d returned %p, model %p", step, q, pkt, want)
				}
				if pkt.next != nil {
					t.Fatalf("step %d: popped packet still linked", step)
				}
				m.ref[q] = m.ref[q][1:]
				m.hand = append(m.hand, pkt)
			case 3: // Put a packet in hand
				if len(m.hand) == 0 {
					m.pool.Put(nil) // a no-op
					continue
				}
				pkt := take(&m.hand, arg)
				m.pool.Put(pkt)
				m.free = append(m.free, pkt)
			case 4: // Put a packet already on the free list again
				if len(m.free) == 0 {
					continue
				}
				pkt := m.free[int(arg)%len(m.free)]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("step %d: double release did not panic", step)
						}
					}()
					m.pool.Put(pkt)
				}()
			}
			m.check(step)
		}
	})
}
