package packet

// Pool is a deterministic LIFO free list of packets, linked as a FIFO
// is. It deliberately avoids sync.Pool: the simulator is single-threaded
// per run, and sync.Pool's GC-driven eviction and per-P sharding would
// make packet reuse (and thus allocation behavior) nondeterministic
// across runs.
//
// Ownership contract: packets are single-owner (see Packet). Exactly
// the component that consumes a packet releases it — the MMU on drop,
// the receiving host after the transport consumes a data segment or
// retires an ACK. Put panics on double-release.
//
// INT slices migrate with the packet's payload arrays: a receiver
// transfers a data packet's Hops array to the ACK's AckINT (nilling
// Hops), so Put re-homes whichever array the retired packet still owns
// into Hops for the next Get to append into.
type Pool struct {
	free *Packet // most recently released; the rest link through next

	// Allocs counts packets newly allocated because the free list was
	// empty; Recycled counts Gets served from the free list. Their sum
	// is the total Get count.
	Allocs   int64
	Recycled int64
}

// Get returns a packet with all fields zeroed, reusing a released one
// when available (any retained Hops capacity is kept, length 0).
func (p *Pool) Get() *Packet {
	if pkt := p.free; pkt != nil {
		p.free, pkt.next = pkt.next, nil
		p.Recycled++
		pkt.pooled = false
		return pkt
	}
	p.Allocs++
	return &Packet{}
}

// Put releases a packet back to the pool. The caller must own the
// packet and hold no references to it (or its INT slices) afterwards.
// Put resets every field, keeping INT array capacity for reuse.
func (p *Pool) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	if pkt.pooled {
		panic("packet: double release to pool")
	}
	hops := pkt.Hops
	if hops == nil {
		// ACK retirement: the telemetry array rode in on AckINT.
		hops = pkt.AckINT
	}
	*pkt = Packet{Hops: hops[:0], pooled: true, next: p.free}
	p.free = pkt
}
