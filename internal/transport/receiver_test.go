package transport

import (
	"testing"

	"abm/internal/packet"
	"abm/internal/sim"
)

// FuzzReceiverSpans drives the receiver's span list with arbitrary
// insertions and AdvanceTo calls and checks it against a plain byte set
// after every step: rcvNxt is the first missing byte, the out-of-order
// spans are sorted, non-empty and disjoint with a gap before each (none
// touches rcvNxt or its neighbour), together they hold exactly the
// received bytes beyond rcvNxt, and Gaps() counts them. Each op is three
// bytes: kind (a multiple of 4 is AdvanceTo, anything else a data
// range), offset, and length.
func FuzzReceiverSpans(f *testing.F) {
	f.Add([]byte{1, 10, 9, 1, 30, 9, 1, 50, 9, 1, 22, 2, 1, 0, 9})  // middle-gap insert, then fill
	f.Add([]byte{1, 30, 9, 1, 50, 9, 0, 35, 0, 1, 0, 40})           // advance into a span
	f.Add([]byte{1, 10, 4, 1, 15, 4, 1, 20, 4, 1, 14, 0, 1, 19, 0}) // adjacency merges
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 512 // every offset+length below fits
		r := NewReceiver(sim.New(1), 1, 2, 1, func(*packet.Packet) {})
		var got [size]bool
		for i := 0; i+2 < len(ops); i += 3 {
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

			firstMissing := int64(0)
			for firstMissing < size && got[firstMissing] {
				firstMissing++
			}
			if r.RcvNxt() != firstMissing {
				t.Fatalf("op %d: rcvNxt %d, first missing byte %d", i/3, r.RcvNxt(), firstMissing)
			}
			var held [size]bool
			prevEnd := r.RcvNxt()
			for _, s := range r.ooo {
				if s.start <= prevEnd || s.end <= s.start {
					t.Fatalf("op %d: spans %v after rcvNxt %d are not sorted, non-empty and separated", i/3, r.ooo, r.RcvNxt())
				}
				for b := s.start; b < s.end; b++ {
					held[b] = true
				}
				prevEnd = s.end
			}
			runs := 0
			for b := firstMissing; b < size; b++ {
				if held[b] != got[b] {
					t.Fatalf("op %d: byte %d held=%v, received=%v (spans %v)", i/3, b, held[b], got[b], r.ooo)
				}
				if got[b] && !got[b-1] {
					runs++
				}
			}
			if r.Gaps() != runs {
				t.Fatalf("op %d: Gaps() %d, the received set has %d runs beyond rcvNxt", i/3, r.Gaps(), runs)
			}
		}
	})
}
