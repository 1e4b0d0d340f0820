package packet

// FIFO is a queue of packets linked through the packets themselves, so
// it never allocates. A packet is single-owner and sits in at most one
// FIFO or Pool at a time. The zero value is an empty FIFO.
type FIFO struct {
	head, tail *Packet
	n          int
}

// Push appends p at the tail.
func (f *FIFO) Push(p *Packet) {
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.next = p
	}
	f.tail = p
	f.n++
}

// Pop removes and returns the head packet, or nil when f is empty.
func (f *FIFO) Pop() *Packet {
	p := f.head
	if p == nil {
		return nil
	}
	f.head, p.next = p.next, nil
	if f.head == nil {
		f.tail = nil
	}
	f.n--
	return p
}

// Head returns the head packet without removing it, or nil.
func (f *FIFO) Head() *Packet { return f.head }

// Tail returns the most recently pushed packet without removing it, or
// nil.
func (f *FIFO) Tail() *Packet { return f.tail }

// Len returns the number of packets in f.
func (f *FIFO) Len() int { return f.n }

// Next returns the packet linked after p in the FIFO or free list that
// holds it, or nil.
func (p *Packet) Next() *Packet { return p.next }
