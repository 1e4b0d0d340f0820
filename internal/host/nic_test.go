package host

import (
	"testing"

	"abm/internal/device"
	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// wireSeg is one packet: as the wire delivered it, at its arrival
// time, or as a script hands it to the NIC, at its Output time.
type wireSeg struct {
	at      units.Time
	flow    uint64
	src     packet.NodeID
	dst     packet.NodeID
	prio    uint8
	flags   packet.Flag
	seq     int64
	payload units.ByteCount
	sentAt  units.Time
	ackNo   int64
}

// wireTap records every packet it receives and releases it.
type wireTap struct {
	s   *sim.Simulator
	got []wireSeg
}

func (w *wireTap) ID() packet.NodeID { return 2 }
func (w *wireTap) Receive(p *packet.Packet) {
	w.got = append(w.got, wireSeg{w.s.Now(), p.FlowID, p.Src, p.Dst, p.Prio, p.Flags, p.Seq, p.Payload, p.SentAt, p.AckNo})
	w.s.FreePacket(p)
}

// refNIC is the NIC as a plain FIFO holding one packet per segment:
// the reference FuzzNICRuns holds Host's segment runs to.
type refNIC struct {
	queue packet.FIFO
	busy  bool
	txPkt *packet.Packet
	tx    device.Serializer
	link  *device.Link
}

func (r *refNIC) Output(p *packet.Packet) {
	r.queue.Push(p)
	r.maybeTransmit()
}

func (r *refNIC) maybeTransmit() {
	if r.busy || r.queue.Len() == 0 {
		return
	}
	r.txPkt, r.busy = r.queue.Pop(), true
	r.tx.Start(r.txPkt, refTxDone, r)
}

func refTxDone(a any) {
	r := a.(*refNIC)
	r.link.Send(r.txPkt)
	r.txPkt, r.busy = nil, false
	r.maybeTransmit()
}

// nicScript turns fuzz bytes into Outputs from three flows' senders.
// Each pair of bytes is one step: a data segment (contiguous with the
// flow's last or not, sent now or stamped a picosecond earlier, a FIN
// segment shorter than an MSS, a retransmission), an ACK, or a pause of
// up to two and a half MSS serialization times. Every flow tags its
// first few segments unscheduled, so a run meets the tag's boundary.
// Like a transport.Sender's, every data segment but a FIN one is a
// full MSS.
func nicScript(data []byte, mss units.ByteCount) []wireSeg {
	type flowState struct {
		next     int64
		unsched  int
		flagsECT packet.Flag
	}
	var flows [3]flowState
	for i := range flows {
		flows[i].unsched = 2 + 3*i
	}
	flows[2].flagsECT = packet.FlagECT
	var now units.Time
	var ops []wireSeg
	for ; len(data) >= 2; data = data[2:] {
		op, arg := data[0]%4, data[1]
		id := int(arg) % len(flows)
		st := &flows[id]
		seg := wireSeg{at: now, flow: uint64(id + 1), src: 1, dst: 2, prio: uint8(id % 2), sentAt: now}
		switch op {
		case 0, 1: // data segment
			seg.seq = st.next
			if arg&4 != 0 { // off the flow's next byte: back up to 1 MSS, or skip up to 2
				seg.seq = max(0, st.next+int64(mss)*(int64(arg>>5&3)-1))
			}
			seg.payload = mss
			seg.flags = st.flagsECT
			if arg&8 != 0 {
				seg.payload = mss - units.ByteCount(arg>>4)*(mss/16)
				seg.flags |= packet.FlagFIN
			}
			if arg&16 != 0 {
				seg.flags |= packet.FlagRetransmit
			} else if st.unsched > 0 {
				st.unsched--
				seg.flags |= packet.FlagUnscheduled
			}
			if op == 1 && now > 0 {
				seg.sentAt = now - 1
			}
			st.next = seg.seq + int64(seg.payload)
		case 2: // ACK
			seg.flags = packet.FlagACK
			if arg&4 != 0 {
				seg.flags |= packet.FlagECE
			}
			seg.ackNo = int64(arg)
		case 3: // pause
			now += units.Time(arg%8) * 400 * units.Nanosecond
			continue
		}
		ops = append(ops, seg)
	}
	return ops
}

// runNIC plays the script through out on s and returns the wire, the
// backlog after each Output, and the free list's allocations.
func runNIC(s *sim.Simulator, ops []wireSeg, tap *wireTap, out func(*packet.Packet), backlog func() int) ([]wireSeg, []int, int64) {
	var depth []int
	for _, w := range ops {
		s.At(w.at, func() {
			p := s.NewPacket()
			p.FlowID, p.Src, p.Dst, p.Prio, p.Flags = w.flow, w.src, w.dst, w.prio, w.flags
			p.Seq, p.Payload, p.SentAt, p.AckNo = w.seq, w.payload, w.sentAt, w.ackNo
			out(p)
			depth = append(depth, backlog())
		})
	}
	s.Run()
	var t obs.Tally
	s.AddCounts(&t)
	return tap.got, depth, t[obs.CtrPktPoolAllocs]
}

// FuzzNICRuns checks the NIC's segment runs against a plain FIFO: the
// packets on the wire match the reference field by field and in
// arrival time, Backlog matches the reference queue's depth after
// every Output, the free list allocates no more packets than the
// reference's, and the host counts every segment it was handed.
func FuzzNICRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})                               // one flow's burst: a run across the tag boundary
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 72, 0, 0, 0, 0, 0, 0})                        // a FIN ends a run; the next segment starts another
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 1, 0, 2, 0, 2})             // flows and an ACK interleave
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 48, 0, 0, 0, 69, 0, 0, 0, 6, 0, 0})           // a retransmit, a skip and a back-up inside a burst
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 3, 3, 0, 0, 1, 0, 3, 1, 0, 0, 0, 0}) // SentAt differs at one instant; pauses
	f.Add([]byte{0, 2, 0, 2, 0, 2, 0, 2, 3, 1, 0, 2, 0, 2, 3, 7, 0, 2, 0, 242, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		const rate = 10 * units.GigabitPerSec
		ops := nicScript(data, 1440)

		s := sim.New(1)
		h := New(s, Config{ID: 1, Rate: rate, BaseRTT: 80 * units.Microsecond})
		tap := &wireTap{s: s}
		h.Connect(device.NewLink(s, 0, tap))
		got, depth, allocs := runNIC(s, ops, tap, h.Output, h.Backlog)

		rs := sim.New(1)
		ref := &refNIC{tx: device.NewSerializer(rs, rate, 1440)}
		rtap := &wireTap{s: rs}
		ref.link = device.NewLink(rs, 0, rtap)
		want, wantDepth, wantAllocs := runNIC(rs, ops, rtap, ref.Output, ref.queue.Len)

		if len(got) != len(want) {
			t.Fatalf("%d packets on the wire, reference %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("packet %d: %+v, reference %+v", i, got[i], want[i])
			}
		}
		for i := range wantDepth {
			if depth[i] != wantDepth[i] {
				t.Fatalf("after Output %d: backlog %d, reference %d", i, depth[i], wantDepth[i])
			}
		}
		if h.Backlog() != 0 {
			t.Fatalf("backlog %d after the NIC drained", h.Backlog())
		}
		if allocs > wantAllocs {
			t.Fatalf("free list allocated %d packets, reference %d", allocs, wantAllocs)
		}
		var segs, acks int64
		for _, w := range want {
			if w.flags&packet.FlagACK != 0 {
				acks++
			} else {
				segs++
			}
		}
		if h.dataSent != segs || h.ackSent != acks {
			t.Fatalf("host counted %d data and %d ACKs sent, wire carried %d and %d", h.dataSent, h.ackSent, segs, acks)
		}
	})
}

// TestNICBurstQueuesOneRun checks that a flow's first-RTT burst sits in
// the NIC as one packet: the first segment goes on the wire, the other
// nine join one run, and Backlog still counts nine segments.
func TestNICBurstQueuesOneRun(t *testing.T) {
	s := sim.New(1)
	h := New(s, Config{ID: 1, Rate: units.GigabitPerSec})
	tap := &wireTap{s: s}
	h.Connect(device.NewLink(s, 0, tap))
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			p := s.NewPacket()
			p.FlowID, p.Src, p.Dst, p.Seq, p.Payload = 1, 1, 2, int64(i)*1440, 1440
			p.Flags = packet.FlagUnscheduled
			h.Output(p)
		}
		if h.queue.Len() != 1 || h.Backlog() != 9 {
			t.Errorf("NIC queue holds %d packets for a backlog of %d, want 1 for 9", h.queue.Len(), h.Backlog())
		}
	})
	s.Run()
	if len(tap.got) != 10 {
		t.Fatalf("%d segments on the wire, want 10", len(tap.got))
	}
	for i, w := range tap.got {
		if w.seq != int64(i)*1440 || w.payload != 1440 || w.flags != packet.FlagUnscheduled {
			t.Fatalf("segment %d: %+v", i, w)
		}
	}
}
