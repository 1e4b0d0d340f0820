package device

import (
	"testing"

	"abm/internal/obs"
	"abm/internal/packet"
	"abm/internal/sim"
	"abm/internal/units"
)

// calendarPushes returns s's delay-line pushes and its heap pushes so
// far.
func calendarPushes(s *sim.Simulator) (line, cal int64) {
	var tl obs.Tally
	s.AddCounts(&tl)
	return tl[obs.CtrCalendarLine], tl[obs.CtrCalendarHeap]
}

// TestSerializerLines pins the routing of serialization ends: a full
// segment and a header-only packet ride their rate's delay line, any
// other size takes the calendar, and every end fires exactly
// TxTime(size) after the start — before and after SetRate, including a
// rate whose per-byte time is fractional (3 Gb/s rounds up).
func TestSerializerLines(t *testing.T) {
	const mss = 1440
	cases := []struct {
		name    string
		payload units.ByteCount
		onLine  bool
	}{
		{"full segment", mss, true},
		{"header only", 0, true},
		{"partial segment", 777, false},
		{"one byte", 1, false},
	}
	for _, rates := range [][2]units.Rate{
		{10 * units.GigabitPerSec, 25 * units.GigabitPerSec},
		{10 * units.GigabitPerSec, 3 * units.GigabitPerSec},
	} {
		for _, tc := range cases {
			s := sim.New(1)
			z := NewSerializer(s, rates[0], mss)
			pkt := &packet.Packet{Payload: tc.payload}
			var fired []units.Time
			record := func(any) { fired = append(fired, s.Now()) }
			start := func(r units.Rate) {
				line0, cal0 := calendarPushes(s)
				z.Start(pkt, record, nil)
				line, cal := calendarPushes(s)
				if onLine := line == line0+1 && cal == cal0; onLine != tc.onLine {
					t.Errorf("%v %s: line pushes +%d, calendar pushes +%d, want on a line: %v",
						r, tc.name, line-line0, cal-cal0, tc.onLine)
				}
				began := s.Now()
				s.Run()
				if want := began + r.TxTime(pkt.Size()); fired[len(fired)-1] != want {
					t.Errorf("%v %s: fired at %v, want %v", r, tc.name, fired[len(fired)-1], want)
				}
			}
			start(rates[0])
			z.SetRate(rates[1])
			if z.Rate() != rates[1] {
				t.Fatalf("Rate() = %v after SetRate(%v)", z.Rate(), rates[1])
			}
			start(rates[1])
		}
	}
}

// TestPortSerializationOnLines drives a switch port: full segments and
// header-only packets leave through the port's lines, a partial segment
// through the calendar, and after a mid-run SetRate the new rate's
// lines time the next packets exactly.
func TestPortSerializationOnLines(t *testing.T) {
	const prop = 10 * units.Microsecond
	s := sim.New(1)
	sw, dst := testSwitch(s, SwitchConfig{MSS: 1000})
	oldRate, newRate := sw.Port(0).Rate(), 40*units.GigabitPerSec
	sizes := []units.ByteCount{1000, 0, 999, 1000, 0}
	s.At(0, func() {
		for i, sz := range sizes[:3] {
			sw.Receive(dataPkt(uint64(i), sz))
		}
	})
	s.At(5*units.Microsecond, func() {
		sw.Port(0).SetRate(newRate)
		for i, sz := range sizes[3:] {
			sw.Receive(dataPkt(uint64(3+i), sz))
		}
	})
	drain(s, sw)
	var want units.Time
	for i, sz := range sizes {
		r := oldRate
		if i >= 3 {
			r, want = newRate, max(want, 5*units.Microsecond)
		}
		want += r.TxTime(sz + packet.HeaderBytes)
		if got := dst.arrived[i] - prop; got != want {
			t.Fatalf("packet %d (%d B payload at %v) left at %v, want %v", i, sz, r, got, want)
		}
	}
	// Five deliveries and four serialization ends ride lines; the
	// 999-byte segment and the two scheduled arrivals take the calendar.
	if line, cal := calendarPushes(s); line != 9 || cal != 3 {
		t.Fatalf("line pushes %d, calendar pushes %d; want 9 and 3", line, cal)
	}
}
