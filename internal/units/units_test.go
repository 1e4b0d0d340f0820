package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTxTimeExact(t *testing.T) {
	tests := []struct {
		name string
		rate Rate
		n    ByteCount
		want Time
	}{
		{"1500B at 10G", 10 * GigabitPerSec, 1500, 1200 * Nanosecond},
		{"1B at 10G", 10 * GigabitPerSec, 1, 800 * Picosecond},
		{"1500B at 100G", 100 * GigabitPerSec, 1500, 120 * Nanosecond},
		{"1B at 400G", 400 * GigabitPerSec, 1, 20 * Picosecond},
		{"zero bytes", 10 * GigabitPerSec, 0, 0},
		{"1GB at 1G", GigabitPerSec, Gigabyte, 8 * Second},
		{"64B at 1bps", 1, 64, 512 * Second},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.rate.TxTime(tc.n); got != tc.want {
				t.Errorf("TxTime(%v) at %v = %v, want %v", tc.n, tc.rate, got, tc.want)
			}
		})
	}
}

func TestBytesOver(t *testing.T) {
	tests := []struct {
		rate Rate
		d    Time
		want ByteCount
	}{
		{10 * GigabitPerSec, 1200 * Nanosecond, 1500},
		{10 * GigabitPerSec, Microsecond, 1250},
		{GigabitPerSec, Second, 125 * Megabyte},
		{10 * GigabitPerSec, 0, 0},
		{10 * GigabitPerSec, 100 * Picosecond, 0}, // sub-byte rounds down
	}
	for _, tc := range tests {
		if got := tc.rate.BytesOver(tc.d); got != tc.want {
			t.Errorf("BytesOver(%v) at %v = %v, want %v", tc.d, tc.rate, got, tc.want)
		}
	}
}

func TestRateOf(t *testing.T) {
	if got := RateOf(1250, Microsecond); got != 10*GigabitPerSec {
		t.Errorf("RateOf(1250B, 1us) = %v, want 10Gbps", got)
	}
	if got := RateOf(100, 0); got != 0 {
		t.Errorf("RateOf with zero duration = %v, want 0", got)
	}
	if got := RateOf(0, Second); got != 0 {
		t.Errorf("RateOf(0, 1s) = %v, want 0", got)
	}
}

// TxTime followed by BytesOver must round-trip: transmitting n bytes takes
// exactly the time over which n bytes fit.
func TestRoundTripProperty(t *testing.T) {
	f := func(rawBytes uint32, rawRate uint32) bool {
		n := ByteCount(rawBytes % 10_000_000)
		r := Rate(rawRate%400) * GigabitPerSec
		if r == 0 {
			r = GigabitPerSec
		}
		d := r.TxTime(n)
		got := r.BytesOver(d)
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TxTime must be monotone in the byte count.
func TestTxTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32, rawRate uint32) bool {
		r := Rate(rawRate%100+1) * GigabitPerSec
		na, nb := ByteCount(a%1_000_000), ByteCount(b%1_000_000)
		if na > nb {
			na, nb = nb, na
		}
		return r.TxTime(na) <= r.TxTime(nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMulDivOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	mulDiv(math.MaxInt64, math.MaxInt64, 1)
}

func TestMulDivZeroDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero division")
		}
	}()
	mulDiv(1, 1, 0)
}

func TestNegativeTxTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative bytes")
		}
	}()
	GigabitPerSec.TxTime(-1)
}

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{Second, "1s"},
		{1500 * Microsecond, "1.500ms"},
		{10 * Microsecond, "10.000us"},
		{800 * Picosecond, "800ps"},
		{1200 * Nanosecond, "1.200us"},
	}
	for _, tc := range tests {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tc.in), got, tc.want)
		}
	}
}

func TestByteCountString(t *testing.T) {
	if got := (1500 * Byte).String(); got != "1.50KB" {
		t.Errorf("got %q", got)
	}
	if got := (2 * Megabyte).String(); got != "2.00MB" {
		t.Errorf("got %q", got)
	}
	if got := (12 * Byte).String(); got != "12B" {
		t.Errorf("got %q", got)
	}
	if got := (3 * Gigabyte).String(); got != "3.00GB" {
		t.Errorf("got %q", got)
	}
}

func TestRateString(t *testing.T) {
	if got := (10 * GigabitPerSec).String(); got != "10.00Gbps" {
		t.Errorf("got %q", got)
	}
	if got := (25 * MegabitPerSec).String(); got != "25.00Mbps" {
		t.Errorf("got %q", got)
	}
	if got := (3 * KilobitPerSec).String(); got != "3.00Kbps" {
		t.Errorf("got %q", got)
	}
	if got := Rate(5).String(); got != "5bps" {
		t.Errorf("got %q", got)
	}
}

func TestSeconds(t *testing.T) {
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds = %v", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3 {
		t.Errorf("Microseconds = %v", got)
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if MinTime(1, 2) != 1 || MaxTime(1, 2) != 2 {
		t.Error("time min/max broken")
	}
	if MinBytes(5, 3) != 3 || MaxBytes(5, 3) != 5 {
		t.Error("bytes min/max broken")
	}
}

func TestBDP(t *testing.T) {
	// 10 Gb/s over 80us base RTT = 100KB.
	if got := BDP(10*GigabitPerSec, 80*Microsecond); got != 100*Kilobyte {
		t.Errorf("BDP = %v, want 100KB", got)
	}
}

func TestGbps(t *testing.T) {
	if got := (25 * GigabitPerSec).Gbps(); got != 25 {
		t.Errorf("Gbps = %v", got)
	}
}

// BytesOver is monotone in duration.
func TestBytesOverMonotoneProperty(t *testing.T) {
	f := func(a, b uint32, rawRate uint32) bool {
		r := Rate(rawRate%100+1) * GigabitPerSec
		da, db := Time(a), Time(b)
		if da > db {
			da, db = db, da
		}
		return r.BytesOver(da) <= r.BytesOver(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// RateOf inverts BytesOver up to rounding.
func TestRateOfRoundTripProperty(t *testing.T) {
	f := func(rawRate uint32) bool {
		r := Rate(rawRate%400+1) * GigabitPerSec
		d := Millisecond
		n := r.BytesOver(d)
		got := RateOf(n, d)
		diff := float64(got-r) / float64(r)
		return diff < 0.001 && diff > -0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestPsPerByteExact is the exactness contract of the transmit path: at
// every standard Ethernet rate one byte serializes in a whole number of
// picoseconds, so size x PsPerByte equals Rate.TxTime(size) for every
// frame size up to a 9216-byte jumbo, and TxClock returns that value.
func TestPsPerByteExact(t *testing.T) {
	for _, gbps := range []int64{1, 10, 25, 40, 50, 100, 200, 400} {
		r := Rate(gbps) * GigabitPerSec
		ps, exact := r.PsPerByte()
		if !exact {
			t.Fatalf("%v: per-byte time reported not exact", r)
		}
		clk := NewTxClock(r)
		if clk.Rate() != r {
			t.Fatalf("%v: clock reports rate %v", r, clk.Rate())
		}
		for n := ByteCount(0); n <= 9216; n++ {
			want := r.TxTime(n)
			if got := Time(n) * ps; got != want {
				t.Fatalf("%v: %d B x %d ps = %v, TxTime = %v", r, n, ps, got, want)
			}
			if got := clk.TxTime(n); got != want {
				t.Fatalf("%v: TxClock.TxTime(%d) = %v, want %v", r, n, got, want)
			}
		}
	}
}

// TestPsPerByteFallback covers rates whose per-byte time is fractional
// (8e12 ps·bit/s does not divide by 3 or 7 Gb/s): PsPerByte says so and
// TxClock falls back to Rate.TxTime's rounded-up value.
func TestPsPerByteFallback(t *testing.T) {
	for _, gbps := range []int64{3, 7} {
		r := Rate(gbps) * GigabitPerSec
		if ps, exact := r.PsPerByte(); exact || ps != 0 {
			t.Fatalf("%v: PsPerByte = (%v, %v), want (0, false)", r, ps, exact)
		}
		clk := NewTxClock(r)
		rounded := false
		for n := ByteCount(0); n <= 9216; n++ {
			want := r.TxTime(n)
			if got := clk.TxTime(n); got != want {
				t.Fatalf("%v: TxClock.TxTime(%d) = %v, want %v", r, n, got, want)
			}
			if int64(want)*int64(r) != n.Bits()*int64(Second) {
				rounded = true
			}
		}
		if !rounded {
			t.Fatalf("%v: no size needed rounding; the fallback was not exercised", r)
		}
	}
	// A rate so slow the product could overflow keeps TxTime's checked
	// arithmetic, and a negative size still panics through the clock.
	slow := NewTxClock(1 * BitPerSecond)
	if got, want := slow.TxTime(1000), (1 * BitPerSecond).TxTime(1000); got != want {
		t.Fatalf("1 b/s: TxClock.TxTime = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic through TxClock")
		}
	}()
	NewTxClock(10 * GigabitPerSec).TxTime(-1)
}
