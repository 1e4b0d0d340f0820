package transport

import (
	"testing"

	"abm/internal/packet"
	"abm/internal/sim"
)

// FuzzReceiverSpans drives three receivers on one Endpoint with
// arbitrary insertions and AdvanceTo calls and checks each against its
// own byte set after every step: rcvNxt is the first missing byte, the
// out-of-order spans are sorted, non-empty and disjoint with a gap
// before each (none touches rcvNxt or its neighbour), together they
// hold exactly the received bytes beyond rcvNxt, and Gaps() counts
// them. The receivers share the endpoint's span-buffer pool, so a pair
// handed back while a receiver still uses it shows up as another
// receiver's spans; the pool itself must hold only pairs no receiver
// has. Each op is three bytes: kind (kind/4 mod 3 picks the receiver;
// a multiple of 4 is AdvanceTo, anything else a data range), offset,
// and length.
func FuzzReceiverSpans(f *testing.F) {
	f.Add([]byte{1, 10, 9, 1, 30, 9, 1, 50, 9, 1, 22, 2, 1, 0, 9})                                              // middle-gap insert, then fill
	f.Add([]byte{1, 30, 9, 1, 50, 9, 0, 35, 0, 1, 0, 40})                                                       // advance into a span
	f.Add([]byte{1, 10, 4, 1, 15, 4, 1, 20, 4, 1, 14, 0, 1, 19, 0})                                             // adjacency merges
	f.Add([]byte{1, 10, 4, 5, 30, 4, 1, 0, 9, 5, 60, 4, 9, 10, 4})                                              // one flow's pair moves to the next
	f.Add([]byte{1, 10, 1, 1, 20, 1, 1, 30, 1, 1, 40, 1, 0, 64, 0, 5, 100, 1, 5, 120, 1, 5, 140, 1, 5, 110, 1}) // a grown pair, released and reused
	f.Fuzz(func(t *testing.T, ops []byte) {
		ep := newEndpoint(sim.New(1), 2, Config{}, func(*packet.Packet) {})
		var rs [3]*Receiver
		var recv [3][fuzzBytes]bool
		for i := range rs {
			rs[i] = NewReceiver(ep, uint64(i), 1)
		}
		for i := 0; i+2 < len(ops); i += 3 {
			which := int(ops[i]/4) % 3
			r, got := rs[which], &recv[which]
			start := int64(ops[i+1])
			if ops[i]%4 == 0 {
				r.AdvanceTo(start)
				for b := int64(0); b < start; b++ {
					got[b] = true
				}
			} else {
				end := start + int64(ops[i+2]%64) + 1
				r.insert(start, end)
				for b := start; b < end; b++ {
					got[b] = true
				}
			}
			for w, r := range rs {
				checkSpans(t, i/3, w, r, &recv[w])
			}
			checkPool(t, i/3, ep, rs[:])
		}
	})
}

// fuzzBytes bounds the stream FuzzReceiverSpans writes: every
// offset+length it draws fits.
const fuzzBytes = 512

// checkSpans holds receiver w's span list to got, the bytes it was
// given.
func checkSpans(t *testing.T, op, w int, r *Receiver, got *[fuzzBytes]bool) {
	t.Helper()
	firstMissing := int64(0)
	for firstMissing < int64(len(got)) && got[firstMissing] {
		firstMissing++
	}
	if r.RcvNxt() != firstMissing {
		t.Fatalf("op %d, receiver %d: rcvNxt %d, first missing byte %d", op, w, r.RcvNxt(), firstMissing)
	}
	var spans []span
	if r.holes != nil {
		spans = r.holes.ooo
		if len(spans) == 0 {
			t.Fatalf("op %d, receiver %d: holds a span-buffer pair with no spans", op, w)
		}
	}
	var held [fuzzBytes]bool
	prevEnd := r.RcvNxt()
	for _, s := range spans {
		if s.start <= prevEnd || s.end <= s.start {
			t.Fatalf("op %d, receiver %d: spans %v after rcvNxt %d are not sorted, non-empty and separated", op, w, spans, r.RcvNxt())
		}
		for b := s.start; b < s.end; b++ {
			held[b] = true
		}
		prevEnd = s.end
	}
	runs := 0
	for b := firstMissing; b < int64(len(got)); b++ {
		if held[b] != got[b] {
			t.Fatalf("op %d, receiver %d: byte %d held=%v, received=%v (spans %v)", op, w, b, held[b], got[b], spans)
		}
		if got[b] && !got[b-1] {
			runs++
		}
	}
	if r.Gaps() != runs {
		t.Fatalf("op %d, receiver %d: Gaps() %d, the received set has %d runs beyond rcvNxt", op, w, r.Gaps(), runs)
	}
}

// checkPool checks that no span-buffer pair is both pooled and held,
// or held by two receivers.
func checkPool(t *testing.T, op int, ep *Endpoint, rs []*Receiver) {
	t.Helper()
	owner := map[*holes]string{}
	for _, h := range ep.free {
		if owner[h] != "" {
			t.Fatalf("op %d: a span-buffer pair is pooled twice", op)
		}
		owner[h] = "the pool"
	}
	for w, r := range rs {
		if r.holes == nil {
			continue
		}
		if o := owner[r.holes]; o != "" {
			t.Fatalf("op %d: receiver %d holds a span-buffer pair %s also has", op, w, o)
		}
		owner[r.holes] = "another receiver"
	}
}
